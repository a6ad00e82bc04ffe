//! Message envelopes, receive requests and the matching predicate.
//!
//! MPI matches on the tuple *(source, tag, communicator)*; receives may
//! wildcard the source (`MPI_ANY_SOURCE`) and/or the tag (`MPI_ANY_TAG`).
//! The paper's trace analysis (Section IV-A) observes that no application
//! needs tags wider than 16 bits, so "together with the 32-bit value for
//! the source and some bits for the communicator, the entire header could
//! fit into a single 64-bit word" — the packed representation the GPU
//! kernels consume.

use serde::Serialize;
use simt_sim::{Lanes, WARP_SIZE};

/// Rank identifier (MPI rank within a communicator).
pub type Rank = u32;
/// Message tag. Architecturally 16 bits in the packed header.
pub type Tag = u32;
/// Communicator identifier. 15 bits in the packed header.
pub type CommId = u16;

/// Maximum representable tag value in the packed header (16 bits, with
/// the all-ones pattern reserved for the wildcard).
pub const MAX_TAG: u32 = 0xFFFE;
/// Maximum communicator id (15 bits; the MSB of the packed word flags a
/// valid entry so empty hash slots can be all-zero).
pub const MAX_COMM: u16 = 0x7FFE;

/// The source specifier of a receive request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SrcSpec {
    /// Match only messages from this rank.
    Rank(Rank),
    /// `MPI_ANY_SOURCE`: match messages from any rank.
    Any,
}

/// The tag specifier of a receive request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum TagSpec {
    /// Match only messages carrying this tag.
    Tag(Tag),
    /// `MPI_ANY_TAG`: match any tag.
    Any,
}

/// An incoming message's matching header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Envelope {
    /// Sending rank.
    pub src: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Communicator the message travels in.
    pub comm: CommId,
}

impl Envelope {
    /// Construct an envelope, validating the field ranges the packed
    /// header supports.
    pub fn new(src: Rank, tag: Tag, comm: CommId) -> Self {
        assert!(tag <= MAX_TAG, "tag {tag} exceeds the 16-bit header field");
        assert!(
            comm <= MAX_COMM,
            "comm {comm} exceeds the 15-bit header field"
        );
        Envelope { src, tag, comm }
    }

    /// Pack into the 64-bit header word:
    /// `[valid:1 | comm:15 | tag:16 | src:32]`.
    pub fn pack(&self) -> u64 {
        (1u64 << 63) | ((self.comm as u64) << 48) | ((self.tag as u64) << 32) | self.src as u64
    }

    #[cfg(test)]
    /// Unpack from a 64-bit header word. Returns `None` for a word whose
    /// valid bit is clear (e.g. an empty hash-table slot).
    pub(crate) fn unpack(word: u64) -> Option<Self> {
        if word >> 63 == 0 {
            return None;
        }
        Some(Envelope {
            src: word as u32,
            tag: ((word >> 32) & 0xFFFF) as u32,
            comm: ((word >> 48) & 0x7FFF) as u16,
        })
    }
}

/// A posted receive request's matching criteria.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct RecvRequest {
    /// Source specifier (rank or wildcard).
    pub src: SrcSpec,
    /// Tag specifier (tag or wildcard).
    pub tag: TagSpec,
    /// Communicator. Never wildcarded (MPI has no communicator wildcard).
    pub comm: CommId,
}

/// Wildcard encodings in the packed receive word. The kernels compare
/// against these sentinels exactly like the CUDA original compares against
/// `MPI_ANY_SOURCE`/`MPI_ANY_TAG`.
pub(crate) const ANY_SOURCE_BITS: u32 = u32::MAX;
/// Packed-tag wildcard sentinel (see [`ANY_SOURCE_BITS`]).
pub(crate) const ANY_TAG_BITS: u32 = 0xFFFF;

impl RecvRequest {
    /// Fully specified request.
    pub fn exact(src: Rank, tag: Tag, comm: CommId) -> Self {
        RecvRequest {
            src: SrcSpec::Rank(src),
            tag: TagSpec::Tag(tag),
            comm,
        }
    }

    /// Request with `MPI_ANY_SOURCE`.
    pub fn any_source(tag: Tag, comm: CommId) -> Self {
        RecvRequest {
            src: SrcSpec::Any,
            tag: TagSpec::Tag(tag),
            comm,
        }
    }

    /// Request with `MPI_ANY_TAG`.
    pub fn any_tag(src: Rank, comm: CommId) -> Self {
        RecvRequest {
            src: SrcSpec::Rank(src),
            tag: TagSpec::Any,
            comm,
        }
    }

    /// Does this request use any wildcard?
    pub fn has_wildcard(&self) -> bool {
        self.src == SrcSpec::Any || self.tag == TagSpec::Any
    }

    /// Does `msg` satisfy this request?
    pub fn matches(&self, msg: &Envelope) -> bool {
        if self.comm != msg.comm {
            return false;
        }
        let src_ok = match self.src {
            SrcSpec::Any => true,
            SrcSpec::Rank(r) => r == msg.src,
        };
        let tag_ok = match self.tag {
            TagSpec::Any => true,
            TagSpec::Tag(t) => t == msg.tag,
        };
        src_ok && tag_ok
    }

    /// Pack into the 64-bit request word with wildcard sentinels:
    /// `[valid:1 | comm:15 | tag:16 | src:32]`, `src = 0xFFFF_FFFF` for
    /// `ANY_SOURCE`, `tag = 0xFFFF` for `ANY_TAG`.
    pub fn pack(&self) -> u64 {
        let src = match self.src {
            SrcSpec::Rank(r) => r,
            SrcSpec::Any => ANY_SOURCE_BITS,
        };
        let tag = match self.tag {
            TagSpec::Tag(t) => t,
            TagSpec::Any => ANY_TAG_BITS,
        } as u64;
        (1u64 << 63) | ((self.comm as u64) << 48) | (tag << 32) | src as u64
    }

    #[cfg(test)]
    /// Unpack from a 64-bit request word (inverse of
    /// [`RecvRequest::pack`]). Returns `None` if the valid bit is clear.
    pub(crate) fn unpack(word: u64) -> Option<Self> {
        if word >> 63 == 0 {
            return None;
        }
        let src = word as u32;
        let tag = ((word >> 32) & 0xFFFF) as u32;
        Some(RecvRequest {
            src: if src == ANY_SOURCE_BITS {
                SrcSpec::Any
            } else {
                SrcSpec::Rank(src)
            },
            tag: if tag == ANY_TAG_BITS {
                TagSpec::Any
            } else {
                TagSpec::Tag(tag)
            },
            comm: ((word >> 48) & 0x7FFF) as u16,
        })
    }
}

/// The packed-word matching predicate: exactly the comparison a CUDA
/// lane performs on two 64-bit header words, and the oracle of
/// [`WarpWords::ballot`], which the GPU kernels evaluate for a whole warp.
///
/// `msg_word` must come from [`Envelope::pack`] and `req_word` from
/// [`RecvRequest::pack`]. One masked XOR: the words must agree on every
/// bit `req_word` cares about (see [`match_care`]).
#[cfg(test)]
pub(crate) fn packed_matches(msg_word: u64, req_word: u64) -> bool {
    (msg_word ^ req_word) & match_care(req_word) == 0
}

/// The bits of a message word that a request word constrains: the valid
/// bit and the communicator always, the source unless it is
/// [`ANY_SOURCE_BITS`], the tag unless it is [`ANY_TAG_BITS`].
#[inline]
fn match_care(req_word: u64) -> u64 {
    const VALID_COMM: u64 = 0xFFFF << 48;
    const TAG: u64 = 0xFFFF << 32;
    const SRC: u64 = 0xFFFF_FFFF;
    let mut care = VALID_COMM | TAG | SRC;
    if req_word as u32 == ANY_SOURCE_BITS {
        care &= !SRC;
    }
    if (req_word >> 32) as u16 == ANY_TAG_BITS as u16 {
        care &= !TAG;
    }
    care
}

/// One warp's message words, indexed for the ballot of every request the
/// warp scans: lane `l` holds `words[l]`, and bit `l` of `live` says
/// whether it holds a message at all. An open-addressed table maps each
/// live word to the lanes holding it, so an exact request's ballot is one
/// lookup and a wildcard request's one masked compare per lane.
#[derive(Debug, Clone)]
pub(crate) struct WarpWords {
    words: [u64; WARP_SIZE],
    live: u32,
    /// Lanes holding the word of each slot; 0 marks an empty slot. A
    /// slot's word is that of its lowest lane.
    slots: [u32; WORD_SLOTS],
}

/// Slots of [`WarpWords`]' table: twice the most distinct words a warp
/// holds, so a probe ends at an empty slot.
const WORD_SLOTS: usize = 2 * WARP_SIZE;

impl WarpWords {
    /// Index `words`, lane `l` live when bit `l` of `live` is set.
    pub(crate) fn new(words: &Lanes<u64>, live: u32) -> Self {
        let mut index = WarpWords {
            words: words.0,
            live,
            slots: [0; WORD_SLOTS],
        };
        let mut lanes = live;
        while lanes != 0 {
            let lane = lanes.trailing_zeros();
            lanes &= lanes - 1;
            let slot = index.slot_of(index.words[lane as usize]);
            index.slots[slot] |= 1 << lane;
        }
        index
    }

    /// The slot holding `word`, or the empty slot where it belongs.
    #[inline]
    fn slot_of(&self, word: u64) -> usize {
        let mut slot = (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize;
        loop {
            let lanes = self.slots[slot];
            if lanes == 0 || self.words[lanes.trailing_zeros() as usize] == word {
                return slot;
            }
            slot = (slot + 1) % WORD_SLOTS;
        }
    }

    /// The live lanes whose message satisfies `req_word`: bit `l` is
    /// `live[l] && packed_matches(words[l], req_word)`.
    #[inline]
    pub(crate) fn ballot(&self, req_word: u64) -> u32 {
        let care = match_care(req_word);
        if care == u64::MAX {
            return self.slots[self.slot_of(req_word)];
        }
        let mut bits = 0u32;
        for (lane, &word) in self.words.iter().enumerate() {
            bits |= u32::from((word ^ req_word) & care == 0) << lane;
        }
        bits & self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_match() {
        let m = Envelope::new(3, 7, 0);
        assert!(RecvRequest::exact(3, 7, 0).matches(&m));
        assert!(!RecvRequest::exact(4, 7, 0).matches(&m));
        assert!(!RecvRequest::exact(3, 8, 0).matches(&m));
        assert!(!RecvRequest::exact(3, 7, 1).matches(&m));
    }

    #[test]
    fn wildcards_match() {
        let m = Envelope::new(3, 7, 2);
        assert!(RecvRequest::any_source(7, 2).matches(&m));
        assert!(!RecvRequest::any_source(8, 2).matches(&m));
        assert!(RecvRequest::any_tag(3, 2).matches(&m));
        assert!(!RecvRequest::any_tag(4, 2).matches(&m));
        let both = RecvRequest {
            src: SrcSpec::Any,
            tag: TagSpec::Any,
            comm: 2,
        };
        assert!(both.matches(&m));
        assert!(
            !both.matches(&Envelope::new(3, 7, 1)),
            "comm never wildcards"
        );
    }

    #[test]
    fn pack_layout() {
        let e = Envelope::new(0xAABBCCDD, 0x1234, 0x7F);
        let w = e.pack();
        assert_eq!(w & 0xFFFF_FFFF, 0xAABBCCDD);
        assert_eq!((w >> 32) & 0xFFFF, 0x1234);
        assert_eq!((w >> 48) & 0x7FFF, 0x7F);
        assert_eq!(w >> 63, 1);
    }

    #[test]
    #[should_panic(expected = "tag")]
    fn oversized_tag_is_rejected() {
        let _ = Envelope::new(0, MAX_TAG + 1, 0);
    }

    #[test]
    #[should_panic(expected = "comm")]
    fn oversized_comm_is_rejected() {
        let _ = Envelope::new(0, 0, MAX_COMM + 1);
    }

    #[test]
    fn boundary_values_pack() {
        let e = Envelope::new(u32::MAX, MAX_TAG, MAX_COMM);
        assert_eq!(Envelope::unpack(e.pack()), Some(e));
        let r = RecvRequest::exact(u32::MAX - 1, MAX_TAG, MAX_COMM);
        assert_eq!(RecvRequest::unpack(r.pack()), Some(r));
    }

    #[test]
    fn wildcard_sentinels_do_not_collide_with_real_values() {
        // A real tag can never equal the ANY_TAG sentinel (MAX_TAG is one
        // below it); a real src CAN equal ANY_SOURCE_BITS, which is why
        // Envelope (messages) and RecvRequest (criteria) pack separately.
        const { assert!(MAX_TAG < ANY_TAG_BITS) }
        let msg = Envelope::new(ANY_SOURCE_BITS, 0, 0);
        assert!(RecvRequest::any_source(0, 0).matches(&msg));
        assert!(RecvRequest::exact(ANY_SOURCE_BITS, 0, 0).matches(&msg));
    }

    /// The original branchy predicate: the oracle the masked XOR must
    /// equal on every pair of words, packed or not.
    fn packed_matches_by_fields(msg_word: u64, req_word: u64) -> bool {
        // Communicator (and valid bit) must agree.
        if (msg_word >> 48) != (req_word >> 48) {
            return false;
        }
        let (msrc, rsrc) = (msg_word as u32, req_word as u32);
        let (mtag, rtag) = ((msg_word >> 32) as u16, (req_word >> 32) as u16);
        (rsrc == ANY_SOURCE_BITS || rsrc == msrc) && (rtag == ANY_TAG_BITS as u16 || rtag == mtag)
    }

    #[test]
    fn unpack_rejects_invalid() {
        assert_eq!(Envelope::unpack(0), None);
        assert_eq!(RecvRequest::unpack(0x1234), None);
    }

    proptest! {
        #[test]
        fn envelope_pack_round_trip(src in any::<u32>(), tag in 0u32..=MAX_TAG, comm in 0u16..=MAX_COMM) {
            let e = Envelope::new(src, tag, comm);
            prop_assert_eq!(Envelope::unpack(e.pack()), Some(e));
        }

        #[test]
        fn request_pack_round_trip(
            src in prop_oneof![any::<u32>().prop_map(SrcSpec::Rank), Just(SrcSpec::Any)],
            tag in prop_oneof![(0u32..=MAX_TAG).prop_map(TagSpec::Tag), Just(TagSpec::Any)],
            comm in 0u16..=MAX_COMM,
        ) {
            let r = RecvRequest { src, tag, comm };
            // ANY_SOURCE_BITS as an explicit rank is indistinguishable from
            // the wildcard by design; skip that corner.
            prop_assume!(src != SrcSpec::Rank(ANY_SOURCE_BITS));
            prop_assert_eq!(RecvRequest::unpack(r.pack()), Some(r));
        }

        #[test]
        fn packed_predicate_agrees_with_struct_predicate(
            msrc in 0u32..50, mtag in 0u32..20, mcomm in 0u16..4,
            rsrc in prop_oneof![(0u32..50).prop_map(SrcSpec::Rank), Just(SrcSpec::Any)],
            rtag in prop_oneof![(0u32..20).prop_map(TagSpec::Tag), Just(TagSpec::Any)],
            rcomm in 0u16..4,
        ) {
            let m = Envelope::new(msrc, mtag, mcomm);
            let r = RecvRequest { src: rsrc, tag: rtag, comm: rcomm };
            prop_assert_eq!(packed_matches(m.pack(), r.pack()), r.matches(&m));
        }
    }

    /// The four fields of a header word: valid bit, comm, tag, src.
    const FIELDS: [u64; 4] = [1 << 63, 0x7FFF << 48, 0xFFFF << 32, 0xFFFF_FFFF];

    /// Any 64-bit word, built field by field so that valid-bit-clear
    /// words, comm values past [`MAX_COMM`] and both wildcard sentinels
    /// (in message words too) are common.
    fn any_header_word() -> impl Strategy<Value = u64> {
        (
            any::<bool>(),
            0u64..=0x7FFF,
            prop_oneof![Just(ANY_TAG_BITS), 0u32..4, 0u32..=0xFFFF],
            prop_oneof![Just(ANY_SOURCE_BITS), 0u32..4, any::<u32>()],
        )
            .prop_map(|(valid, comm, tag, src)| {
                (valid as u64) << 63 | comm << 48 | (tag as u64) << 32 | src as u64
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn masked_xor_equals_the_branchy_predicate_on_any_words(
            msg in any_header_word(),
            req in any_header_word(),
            copied in 0usize..16,
        ) {
            // Bit `f` of `copied` copies field `f` of the message into the
            // request, so that pairs agreeing on some fields and differing
            // on others are as common as unrelated words.
            let req = FIELDS.iter().enumerate().fold(req, |req, (f, &bits)| {
                if copied >> f & 1 == 1 { req & !bits | msg & bits } else { req }
            });
            prop_assert_eq!(packed_matches(msg, req), packed_matches_by_fields(msg, req));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        /// A warp's indexed ballot equals the lane predicate on every
        /// lane: exact requests and all three wildcard classes, words
        /// repeated across lanes, dead lanes, and tables full of 32
        /// distinct words.
        #[test]
        fn warp_ballot_equals_the_lane_predicate(
            pool in proptest::collection::vec(any_header_word(), WARP_SIZE),
            picks in proptest::collection::vec(0usize..WARP_SIZE, WARP_SIZE),
            distinct in prop_oneof![Just(WARP_SIZE), 1usize..=4, 1usize..=WARP_SIZE],
            live in prop_oneof![Just(u32::MAX), Just(0u32), any::<u32>()],
            from_lane in 0usize..WARP_SIZE,
            wildcard in 0u64..4,
            other in any_header_word(),
        ) {
            // `distinct` words over the 32 lanes: lane `l` holds its own
            // word when all 32 are distinct, a pick among a few otherwise.
            let words = Lanes::from_fn(|l| {
                if distinct == WARP_SIZE { pool[l] } else { pool[picks[l] % distinct] }
            });
            let index = WarpWords::new(&words, live);
            // A request built from one lane's word (live or dead), with
            // the source (bit 0) and tag (bit 1) wildcarded; and one
            // unrelated word.
            let mut req = words.get(from_lane);
            if wildcard & 1 == 1 {
                req |= u64::from(ANY_SOURCE_BITS);
            }
            if wildcard & 2 == 2 {
                req |= u64::from(ANY_TAG_BITS) << 32;
            }
            for req in [req, other] {
                let by_lanes = (0..WARP_SIZE).fold(0u32, |bits, l| {
                    let hit = live >> l & 1 == 1 && packed_matches(words.get(l), req);
                    bits | u32::from(hit) << l
                });
                prop_assert_eq!(index.ballot(req), by_lanes);
            }
        }
    }

    /// Every communicator value, with and without the valid bit, against
    /// an exact, a source-wildcard and a tag-wildcard request.
    #[test]
    fn masked_xor_equals_the_branchy_predicate_for_every_comm() {
        for comm in 0..=0x7FFFu64 {
            for valid in [0, 1u64 << 63] {
                let msg = valid | comm << 48 | 7 << 32 | 3;
                for req in [
                    msg,
                    msg | 0xFFFF_FFFF,
                    msg | 0xFFFF << 32,
                    msg ^ 1 << 48,
                    msg ^ 1 << 63,
                ] {
                    assert_eq!(
                        packed_matches(msg, req),
                        packed_matches_by_fields(msg, req),
                        "msg {msg:#018x} req {req:#018x}"
                    );
                }
            }
        }
    }
}
