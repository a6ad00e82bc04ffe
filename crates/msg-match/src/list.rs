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

    #[cfg(test)]
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
pub(crate) struct UmqEntry {
    /// Matching header.
    pub(crate) envelope: Envelope,
    /// Arrival sequence number assigned by the matcher.
    pub(crate) seq: u64,
}

/// Receive entry in the PRQ: the request plus its post sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PrqEntry {
    /// Matching criteria.
    pub(crate) request: RecvRequest,
    /// Post sequence number assigned by the matcher.
    pub(crate) seq: u64,
}

/// A completed match: which arrival paired with which post.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchPair {
    /// Arrival sequence number of the message.
    pub msg_seq: u64,
    /// Post sequence number of the receive.
    pub recv_seq: u64,
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
        let (hit, inspected) = self.prq.remove_first(|e| e.request.matches(&envelope));
        if self.record_stats {
            self.prq_attempts.push(AttemptStats {
                queue_len: qlen,
                search_len: inspected,
                matched: hit.is_some(),
            });
        }
        match hit {
            Some(entry) => Some(MatchPair {
                msg_seq,
                recv_seq: entry.seq,
            }),
            None => {
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
        let (hit, inspected) = self.umq.remove_first(|e| request.matches(&e.envelope));
        if self.record_stats {
            self.umq_attempts.push(AttemptStats {
                queue_len: qlen,
                search_len: inspected,
                matched: hit.is_some(),
            });
        }
        match hit {
            Some(entry) => Some(MatchPair {
                msg_seq: entry.seq,
                recv_seq,
            }),
            None => {
                self.prq.push_back(PrqEntry {
                    request,
                    seq: recv_seq,
                });
                None
            }
        }
    }

    #[cfg(test)]
    /// Snapshot of UMQ envelopes in arrival order (diagnostics/tests).
    pub(crate) fn umq_snapshot(&self) -> Vec<Envelope> {
        self.umq.iter().map(|e| e.envelope).collect()
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

    proptest! {
        /// The list matcher must agree with the reference engine on any
        /// interleaved event stream, including wildcards: same outcome,
        /// same partner, same queue contents.
        ///
        /// Shadow queues hold the sequence number of every entry the
        /// reference keeps, in its order, so the queue index the
        /// reference reports names the exact arrival (or post) the
        /// list matcher must have paired.
        #[test]
        fn agrees_with_reference_engine(
            events in proptest::collection::vec(
                (any::<bool>(), 0u32..6, 0u32..4, 0u8..4), 0..200)
        ) {
            let mut list = ListMatcher::new();
            let mut reference = ReferenceEngine::new();
            let mut umq: Vec<(u64, Envelope)> = Vec::new();
            let mut prq: Vec<u64> = Vec::new();
            let (mut next_msg_seq, mut next_recv_seq) = (0u64, 0u64);
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
                    let recv_seq = next_recv_seq;
                    next_recv_seq += 1;
                    let got = list.post(req);
                    let want = match reference.step(MatchEvent::Post(req)) {
                        EventOutcome::PostMatchedUnexpected(i) => Some(MatchPair {
                            msg_seq: umq.remove(i).0,
                            recv_seq,
                        }),
                        _ => {
                            prq.push(recv_seq);
                            None
                        }
                    };
                    prop_assert_eq!(got, want);
                } else {
                    let msg = e(src, tag);
                    let msg_seq = next_msg_seq;
                    next_msg_seq += 1;
                    let got = list.arrive(msg);
                    let want = match reference.step(MatchEvent::Arrive(msg)) {
                        EventOutcome::ArriveMatchedPosted(i) => Some(MatchPair {
                            msg_seq,
                            recv_seq: prq.remove(i),
                        }),
                        _ => {
                            umq.push((msg_seq, msg));
                            None
                        }
                    };
                    prop_assert_eq!(got, want);
                }
                prop_assert_eq!(list.umq_len(), reference.umq_len());
                prop_assert_eq!(list.prq_len(), reference.prq_len());
            }
            let shadow: Vec<Envelope> = umq.iter().map(|&(_, env)| env).collect();
            prop_assert_eq!(list.umq_snapshot(), shadow);
        }
    }
}
