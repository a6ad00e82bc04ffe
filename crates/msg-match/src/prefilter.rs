//! O(1) queue summary pre-filters over packed (src, tag, comm) tuples.
//!
//! The paper's *no unexpected messages* relaxation wins largely by never
//! paying for fruitless full-queue traversals. A compliant engine can
//! recover part of that win without relaxing anything: keep a counting
//! digest of the tuples present in each queue and consult it before a
//! kernel launch. A probe whose tuple *cannot* be present skips the
//! traversal in O(1); a probe the digest admits proceeds exactly as
//! before. False positives cost only the traversal that would have run
//! anyway; false negatives are structurally impossible (see below), so
//! match results are byte-identical with the filter on or off.
//!
//! ## Why wildcards stay conservative
//!
//! Each [`EnvelopeFilter`] maintains one digest per *request shape* —
//! exact, `(Any, tag)`, `(src, Any)`, `(Any, Any)` — keyed by the packed
//! request word that shape would produce for a message. A request probes
//! only the digest of its own shape with its own packed word, so a
//! wildcard request never consults a projection that discarded the field
//! it wildcards. The [`RequestFilter`] runs the mirror scheme: requests
//! are inserted under their packed words (wildcard sentinels included)
//! and a message probes all four words that could cover it.
//!
//! ## Why rebuild equals incremental maintenance
//!
//! The digests hold exact per-bucket counters (no saturation), so the
//! filter state is a pure function of the *multiset* of keys inserted
//! minus removed. Inserting then removing any soup of tuples leaves the
//! same state as building a fresh filter from the surviving multiset —
//! the property the proptest suite pins down, and the reason compaction
//! can maintain filters incrementally instead of rebuilding.

use crate::envelope::{Envelope, RecvRequest, SrcSpec, TagSpec, ANY_SOURCE_BITS, ANY_TAG_BITS};

/// Digest buckets per projection. Power of two; 4096 × `u32` = 16 KiB
/// per digest, 64 KiB per queue filter — L1/shared-memory-scale state a
/// resident communication kernel can keep device-side. Sized so a
/// 1024-entry queue (one [`crate::matrix::MAX_BATCH`]) keeps the
/// per-probe false-positive rate under ~2%: at `k = 2` probes the rate
/// is `(1 - e^(-2n/m))²`, and collapsing buckets below this point makes
/// the filter pass-through at exactly the depths where skipping a
/// traversal pays most.
const DIGEST_BUCKETS: usize = 4096;

/// splitmix64 finaliser: a full-avalanche 64-bit mixer, so the two
/// bucket probes drawn from disjoint output bits are effectively
/// independent hash functions.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A counting Bloom digest over 64-bit keys with exact (non-saturating)
/// counters: `k = 2` probes per key, power-of-two buckets.
///
/// Exact counters make the digest a pure function of the key multiset,
/// which is what lets incremental remove-on-match equal a rebuild.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CountingDigest {
    counts: Vec<u32>,
    len: u64,
}

impl Default for CountingDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl CountingDigest {
    /// Empty digest.
    pub(crate) fn new() -> Self {
        CountingDigest {
            counts: vec![0; DIGEST_BUCKETS],
            len: 0,
        }
    }

    #[inline]
    fn buckets(key: u64) -> (usize, usize) {
        let h = mix64(key);
        let mask = DIGEST_BUCKETS - 1;
        (h as usize & mask, (h >> 32) as usize & mask)
    }

    /// Record one occurrence of `key`.
    pub(crate) fn insert(&mut self, key: u64) {
        let (a, b) = Self::buckets(key);
        self.counts[a] += 1;
        self.counts[b] += 1;
        self.len += 1;
    }

    /// Erase one previously-inserted occurrence of `key`.
    ///
    /// # Panics
    /// Panics if `key` was not inserted (a caller bug that would
    /// otherwise corrupt the no-false-negative guarantee).
    pub(crate) fn remove(&mut self, key: u64) {
        let (a, b) = Self::buckets(key);
        self.counts[a] = self.counts[a]
            .checked_sub(1)
            .expect("prefilter remove of a key that was never inserted");
        self.counts[b] = self.counts[b]
            .checked_sub(1)
            .expect("prefilter remove of a key that was never inserted");
        self.len -= 1;
    }

    /// May `key` be present? `false` is definitive; `true` may be a
    /// hash collision.
    #[inline]
    pub(crate) fn may_contain(&self, key: u64) -> bool {
        let (a, b) = Self::buckets(key);
        self.counts[a] > 0 && self.counts[b] > 0
    }

    /// Keys currently held (inserts minus removes).
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// No keys held.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The packed request word each request shape would use to cover a
/// message — the projection keys an [`EnvelopeFilter`] maintains.
#[inline]
fn msg_projections(e: &Envelope) -> [u64; 4] {
    let exact = e.pack();
    let comm_hi = (1u64 << 63) | ((e.comm as u64) << 48);
    [
        exact,
        comm_hi | ((e.tag as u64) << 32) | ANY_SOURCE_BITS as u64, // (Any, tag)
        comm_hi | ((ANY_TAG_BITS as u64) << 32) | e.src as u64,    // (src, Any)
        comm_hi | ((ANY_TAG_BITS as u64) << 32) | ANY_SOURCE_BITS as u64, // (Any, Any)
    ]
}

/// Index into [`msg_projections`] for a request's wildcard shape.
#[inline]
fn shape_of(req: &RecvRequest) -> usize {
    match (req.src, req.tag) {
        (SrcSpec::Rank(_), TagSpec::Tag(_)) => 0,
        (SrcSpec::Any, TagSpec::Tag(_)) => 1,
        (SrcSpec::Rank(_), TagSpec::Any) => 2,
        (SrcSpec::Any, TagSpec::Any) => 3,
    }
}

/// Summary pre-filter over a queue of **messages** (the UMQ), probed by
/// receive requests: `may_match(req) == false` guarantees no message in
/// the queue satisfies `req`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EnvelopeFilter {
    /// One digest per request shape, indexed by [`shape_of`].
    shapes: [CountingDigest; 4],
}

impl EnvelopeFilter {
    /// Empty filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a queue snapshot — by construction identical to
    /// inserting every entry incrementally.
    pub fn build<'a>(msgs: impl IntoIterator<Item = &'a Envelope>) -> Self {
        let mut f = Self::new();
        for m in msgs {
            f.insert(m);
        }
        f
    }

    /// A message joined the queue.
    pub fn insert(&mut self, e: &Envelope) {
        for (d, key) in self.shapes.iter_mut().zip(msg_projections(e)) {
            d.insert(key);
        }
    }

    /// A message left the queue (matched or compacted away).
    pub fn remove(&mut self, e: &Envelope) {
        for (d, key) in self.shapes.iter_mut().zip(msg_projections(e)) {
            d.remove(key);
        }
    }

    /// Could any queued message satisfy `req`? `false` is definitive.
    #[inline]
    pub(crate) fn may_match(&self, req: &RecvRequest) -> bool {
        self.shapes[shape_of(req)].may_contain(req.pack())
    }

    /// Messages currently summarised.
    pub fn len(&self) -> u64 {
        self.shapes[0].len()
    }

    /// No messages summarised.
    pub fn is_empty(&self) -> bool {
        self.shapes[0].is_empty()
    }
}

/// Summary pre-filter over a queue of **requests** (the PRQ), probed by
/// messages: `may_match(msg) == false` guarantees no queued request
/// (wildcarded or not) accepts `msg`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestFilter {
    /// One digest per request shape, indexed by [`shape_of`]. Keeping
    /// shapes apart matters: a message's `(Any, Any)` projection is the
    /// *same* key for every message on a communicator, so in a shared
    /// digest one collision on it would pass the whole queue. Per shape,
    /// that probe consults only genuinely double-wildcard posts — empty
    /// in most workloads, so it fails outright.
    shapes: [CountingDigest; 4],
}

impl RequestFilter {
    /// Empty filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a queue snapshot — by construction identical to
    /// inserting every entry incrementally.
    pub fn build<'a>(reqs: impl IntoIterator<Item = &'a RecvRequest>) -> Self {
        let mut f = Self::new();
        for r in reqs {
            f.insert(r);
        }
        f
    }

    /// A receive was posted.
    pub fn insert(&mut self, r: &RecvRequest) {
        self.shapes[shape_of(r)].insert(r.pack());
    }

    /// A posted receive left the queue (matched or cancelled).
    pub fn remove(&mut self, r: &RecvRequest) {
        self.shapes[shape_of(r)].remove(r.pack());
    }

    /// Could any posted request accept `msg`? Probes the exact word and
    /// all three wildcard words that would cover it, each against the
    /// digest of posts of that shape; `false` is definitive.
    #[inline]
    pub(crate) fn may_match(&self, msg: &Envelope) -> bool {
        msg_projections(msg)
            .iter()
            .zip(&self.shapes)
            .any(|(&w, d)| d.may_contain(w))
    }

    /// Requests currently summarised.
    pub fn len(&self) -> u64 {
        self.shapes.iter().map(CountingDigest::len).sum()
    }

    /// No requests summarised.
    pub fn is_empty(&self) -> bool {
        self.shapes.iter().all(|d| d.is_empty())
    }
}

/// Outcome of screening one batch: the surviving index views and the
/// rejection counters the service metrics export.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScreenReport {
    /// Indices of messages some request might accept, in queue order.
    pub msg_keep: Vec<u32>,
    /// Indices of requests some message might satisfy, in posted order.
    pub req_keep: Vec<u32>,
    /// Messages excluded (no posted request can accept them).
    pub rejected_msgs: u64,
    /// Requests excluded (no queued message can satisfy them).
    pub rejected_reqs: u64,
}

impl ScreenReport {
    /// Did the screen reject everything on either side (so the kernel
    /// launch can be skipped entirely)?
    pub fn skip_launch(&self) -> bool {
        self.msg_keep.is_empty() || self.req_keep.is_empty()
    }
}

/// Screen a batch both ways: build a filter over each side, keep only
/// messages some request may accept and requests some message may
/// satisfy.
///
/// Excluding an entry that can match *nothing* never changes the MPI
/// assignment of the survivors — an excluded request consumes no
/// message, and an excluded message is never assigned — so matching the
/// screened views and fanning out with [`expand_assignment`] is
/// byte-identical to matching the full batch.
pub fn screen_batch(msgs: &[Envelope], reqs: &[RecvRequest]) -> ScreenReport {
    let msg_filter = EnvelopeFilter::build(msgs);
    let req_filter = RequestFilter::build(reqs);
    screen_with(&msg_filter, &req_filter, msgs, reqs)
}

/// [`screen_batch`] with caller-maintained filters (a persistent queue
/// keeps them incrementally instead of rebuilding per batch).
pub(crate) fn screen_with(
    msg_filter: &EnvelopeFilter,
    req_filter: &RequestFilter,
    msgs: &[Envelope],
    reqs: &[RecvRequest],
) -> ScreenReport {
    let mut out = ScreenReport::default();
    for (i, m) in msgs.iter().enumerate() {
        if req_filter.may_match(m) {
            out.msg_keep.push(i as u32);
        } else {
            out.rejected_msgs += 1;
        }
    }
    for (j, r) in reqs.iter().enumerate() {
        if msg_filter.may_match(r) {
            out.req_keep.push(j as u32);
        } else {
            out.rejected_reqs += 1;
        }
    }
    out
}

/// `screen_with` over a structure-of-arrays message queue: probes the
/// column store directly instead of a gathered `Vec<Envelope>`.
/// Requests stay AoS — their wildcard *shape* lives in the enum, not the
/// packed word (a literal `Rank(0xFFFFFFFF)` packs like `Any`), and the
/// shape picks which digest to probe.
pub fn screen_soa(
    msg_filter: &EnvelopeFilter,
    req_filter: &RequestFilter,
    msgs: &crate::soa::EnvelopeSoa,
    reqs: &[RecvRequest],
) -> ScreenReport {
    let mut out = ScreenReport::default();
    for (i, m) in msgs.iter().enumerate() {
        if req_filter.may_match(&m) {
            out.msg_keep.push(i as u32);
        } else {
            out.rejected_msgs += 1;
        }
    }
    for (j, r) in reqs.iter().enumerate() {
        if msg_filter.may_match(r) {
            out.req_keep.push(j as u32);
        } else {
            out.rejected_reqs += 1;
        }
    }
    out
}

/// Fan a screened sub-batch assignment back out to full-batch indices:
/// `sub[k] = Some(v)` means screened request `k` matched screened
/// message `v`.
pub fn expand_assignment(
    n_reqs: usize,
    screen: &ScreenReport,
    sub: &[Option<u32>],
) -> Vec<Option<u32>> {
    debug_assert_eq!(sub.len(), screen.req_keep.len());
    let mut full = vec![None; n_reqs];
    for (k, a) in sub.iter().enumerate() {
        if let Some(v) = a {
            full[screen.req_keep[k] as usize] = Some(screen.msg_keep[*v as usize]);
        }
    }
    full
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::match_queues;
    use proptest::prelude::*;

    fn req_strategy() -> impl Strategy<Value = RecvRequest> {
        (
            prop_oneof![(0u32..8).prop_map(SrcSpec::Rank), Just(SrcSpec::Any)],
            prop_oneof![(0u32..6).prop_map(TagSpec::Tag), Just(TagSpec::Any)],
            0u16..3,
        )
            .prop_map(|(src, tag, comm)| RecvRequest { src, tag, comm })
    }

    fn msg_strategy() -> impl Strategy<Value = Envelope> {
        (0u32..8, 0u32..6, 0u16..3).prop_map(|(s, t, c)| Envelope::new(s, t, c))
    }

    #[test]
    fn empty_filters_reject_everything() {
        let ef = EnvelopeFilter::new();
        let rf = RequestFilter::new();
        assert!(!ef.may_match(&RecvRequest::exact(1, 2, 0)));
        assert!(!rf.may_match(&Envelope::new(1, 2, 0)));
        assert!(ef.is_empty() && rf.is_empty());
    }

    #[test]
    fn wildcards_fall_through_conservatively() {
        let mut ef = EnvelopeFilter::new();
        ef.insert(&Envelope::new(3, 7, 1));
        // Every shape that covers the message must pass.
        assert!(ef.may_match(&RecvRequest::exact(3, 7, 1)));
        assert!(ef.may_match(&RecvRequest::any_source(7, 1)));
        assert!(ef.may_match(&RecvRequest::any_tag(3, 1)));
        assert!(ef.may_match(&RecvRequest {
            src: SrcSpec::Any,
            tag: TagSpec::Any,
            comm: 1,
        }));
        // A different communicator never passes, wildcards or not.
        assert!(!ef.may_match(&RecvRequest {
            src: SrcSpec::Any,
            tag: TagSpec::Any,
            comm: 2,
        }));

        let mut rf = RequestFilter::new();
        rf.insert(&RecvRequest::any_source(7, 1));
        assert!(rf.may_match(&Envelope::new(99, 7, 1)));
        assert!(!rf.may_match(&Envelope::new(99, 7, 2)));
    }

    #[test]
    fn any_source_sentinel_rank_is_not_a_false_negative() {
        // A real src CAN equal ANY_SOURCE_BITS; its exact probe word
        // collides with the any-source word by design and must pass.
        let mut rf = RequestFilter::new();
        rf.insert(&RecvRequest::exact(ANY_SOURCE_BITS, 0, 0));
        assert!(rf.may_match(&Envelope::new(ANY_SOURCE_BITS, 0, 0)));
        let mut ef = EnvelopeFilter::new();
        ef.insert(&Envelope::new(ANY_SOURCE_BITS, 0, 0));
        assert!(ef.may_match(&RecvRequest::exact(ANY_SOURCE_BITS, 0, 0)));
        assert!(ef.may_match(&RecvRequest::any_source(0, 0)));
    }

    #[test]
    fn screen_skip_launch_when_nothing_intersects() {
        let msgs = vec![Envelope::new(0, 1, 0), Envelope::new(1, 1, 0)];
        let reqs = vec![RecvRequest::exact(5, 5, 0)];
        let s = screen_batch(&msgs, &reqs);
        assert!(s.skip_launch());
        assert_eq!(s.rejected_msgs, 2);
        assert_eq!(s.rejected_reqs, 1);
        assert_eq!(expand_assignment(1, &s, &[]), vec![None]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Core soundness: a present tuple is never filtered. For every
        /// (message, request) pair that truly matches, the filter built
        /// over either side admits the other.
        #[test]
        fn no_false_negatives(
            msgs in proptest::collection::vec(msg_strategy(), 0..80),
            reqs in proptest::collection::vec(req_strategy(), 0..80),
        ) {
            let ef = EnvelopeFilter::build(&msgs);
            let rf = RequestFilter::build(&reqs);
            for r in &reqs {
                if msgs.iter().any(|m| r.matches(m)) {
                    prop_assert!(ef.may_match(r), "filtered a satisfiable request {r:?}");
                }
            }
            for m in &msgs {
                if reqs.iter().any(|r| r.matches(m)) {
                    prop_assert!(rf.may_match(m), "filtered an acceptable message {m:?}");
                }
            }
        }

        /// Arbitrary insert/remove/compact soups: at every step the
        /// incrementally-maintained filter equals a rebuild from the
        /// surviving multiset, and no live matching entry is filtered.
        #[test]
        fn soup_rebuild_equals_incremental(
            inserts in proptest::collection::vec(msg_strategy(), 1..60),
            ops in proptest::collection::vec((any::<bool>(), any::<usize>()), 0..120),
        ) {
            let mut live: Vec<Envelope> = Vec::new();
            let mut pending = inserts.clone();
            let mut filter = EnvelopeFilter::new();
            for (is_insert, pick) in ops {
                if is_insert && !pending.is_empty() {
                    let m = pending.remove(pick % pending.len());
                    filter.insert(&m);
                    live.push(m);
                } else if !live.is_empty() {
                    // Remove-on-match / compaction: erase a live entry.
                    let m = live.remove(pick % live.len());
                    filter.remove(&m);
                }
                prop_assert_eq!(&filter, &EnvelopeFilter::build(&live),
                    "incremental maintenance diverged from rebuild");
                for m in &live {
                    prop_assert!(filter.may_match(&RecvRequest::exact(m.src, m.tag, m.comm)));
                }
            }
            prop_assert_eq!(filter.len(), live.len() as u64);
        }

        /// Same soup property for the request-side filter, including
        /// wildcard entries.
        #[test]
        fn request_soup_rebuild_equals_incremental(
            inserts in proptest::collection::vec(req_strategy(), 1..60),
            ops in proptest::collection::vec((any::<bool>(), any::<usize>()), 0..120),
        ) {
            let mut live: Vec<RecvRequest> = Vec::new();
            let mut pending = inserts.clone();
            let mut filter = RequestFilter::new();
            for (is_insert, pick) in ops {
                if is_insert && !pending.is_empty() {
                    let r = pending.remove(pick % pending.len());
                    filter.insert(&r);
                    live.push(r);
                } else if !live.is_empty() {
                    let r = live.remove(pick % live.len());
                    filter.remove(&r);
                }
                prop_assert_eq!(&filter, &RequestFilter::build(&live),
                    "incremental maintenance diverged from rebuild");
            }
            prop_assert_eq!(filter.len(), live.len() as u64);
        }

        /// Screening transparency: matching the screened views and
        /// expanding is byte-identical to matching the full batch under
        /// the golden sequential model.
        #[test]
        fn screening_preserves_mpi_assignment(
            msgs in proptest::collection::vec(msg_strategy(), 0..80),
            reqs in proptest::collection::vec(req_strategy(), 0..80),
        ) {
            let golden = match_queues(&msgs, &reqs);
            let s = screen_batch(&msgs, &reqs);
            // The SoA probe path must agree with the slice path exactly.
            let soa = crate::soa::EnvelopeSoa::from_envelopes(&msgs);
            let s2 = screen_soa(
                &EnvelopeFilter::build(&msgs),
                &RequestFilter::build(&reqs),
                &soa,
                &reqs,
            );
            prop_assert_eq!(&s2, &s);
            let sub_msgs: Vec<Envelope> =
                s.msg_keep.iter().map(|&i| msgs[i as usize]).collect();
            let sub_reqs: Vec<RecvRequest> =
                s.req_keep.iter().map(|&j| reqs[j as usize]).collect();
            let sub = match_queues(&sub_msgs, &sub_reqs);
            let sub_u32: Vec<Option<u32>> = sub.iter().map(|x| x.map(|v| v as u32)).collect();
            let expanded = expand_assignment(reqs.len(), &s, &sub_u32);
            let expanded_usize: Vec<Option<usize>> =
                expanded.iter().map(|x| x.map(|v| v as usize)).collect();
            prop_assert_eq!(expanded_usize, golden,
                "screening must be invisible to MPI matching");
        }
    }
}
