//! The golden model: sequential, obviously-correct MPI matching semantics.
//!
//! Every GPU matcher in this crate is validated against this module. Two
//! forms are provided:
//!
//! * [`match_queues`] — batch semantics, the setting of the paper's
//!   micro-benchmarks: a message queue (UMQ content, in arrival order) is
//!   matched against a receive-request queue (PRQ content, in posted
//!   order). Each request, in posted order, takes the earliest unconsumed
//!   message that satisfies it. This is precisely what an MPI library
//!   computes when receives are posted against a populated UMQ.
//! * [`ReferenceEngine`] — event semantics: an interleaved stream of
//!   arrivals and posts drives a UMQ/PRQ pair, recording the queue depths
//!   and search lengths the paper's trace analysis reports.

use crate::envelope::{Envelope, RecvRequest};

/// Batch matching: request `j` (in posted order) is assigned the earliest
/// unconsumed message that satisfies it; `None` if no message remains.
///
/// Quadratic and trivially auditable — the property tests hold every GPU
/// matcher to this output (or, for relaxed matchers, to its cardinality).
pub fn match_queues(msgs: &[Envelope], reqs: &[RecvRequest]) -> Vec<Option<usize>> {
    let mut consumed = vec![false; msgs.len()];
    reqs.iter()
        .map(|req| {
            let hit = msgs
                .iter()
                .enumerate()
                .find(|(i, m)| !consumed[*i] && req.matches(m))
                .map(|(i, _)| i);
            if let Some(i) = hit {
                consumed[i] = true;
            }
            hit
        })
        .collect()
}

/// An event in a communication endpoint's life: a message arriving off the
/// wire, or the application posting a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchEvent {
    /// A message arrived and enters matching.
    Arrive(Envelope),
    /// The application posted a receive request.
    Post(RecvRequest),
}

/// Outcome of one event processed by the [`ReferenceEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventOutcome {
    /// An arrival matched the `n`-th oldest posted receive (PRQ index).
    ArriveMatchedPosted(usize),
    /// An arrival found no posted receive and joined the UMQ.
    ArriveQueuedUnexpected,
    /// A post matched the `n`-th oldest unexpected message (UMQ index).
    PostMatchedUnexpected(usize),
    /// A post found no unexpected message and joined the PRQ.
    PostQueued,
}

/// Statistics of one matching attempt, as the paper's trace analysis
/// gathers them (queue length *at* the attempt, and how deep the search
/// walked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptStats {
    /// Length of the queue that was searched when the attempt started.
    pub(crate) queue_len: usize,
    /// Entries inspected before a match (or the whole queue on a miss).
    pub search_len: usize,
    /// Whether the attempt found a match.
    pub matched: bool,
}

/// Event-driven UMQ/PRQ reference engine.
///
/// Keeps the Unexpected Message Queue and Posted Receive Queue exactly as
/// Section II-B describes: arrivals search the PRQ in posted order,
/// posts search the UMQ in arrival order; misses append.
#[derive(Debug, Default, Clone)]
pub struct ReferenceEngine {
    umq: Vec<Envelope>,
    prq: Vec<RecvRequest>,
    /// Per-attempt statistics for UMQ searches (on posts).
    pub(crate) umq_attempts: Vec<AttemptStats>,
    /// Per-attempt statistics for PRQ searches (on arrivals).
    pub(crate) prq_attempts: Vec<AttemptStats>,
    /// High-water mark of the UMQ.
    pub umq_max: usize,
    /// High-water mark of the PRQ.
    pub prq_max: usize,
    /// Total matches made.
    pub matches: usize,
}

impl ReferenceEngine {
    /// Fresh engine with empty queues.
    pub fn new() -> Self {
        Self::default()
    }

    #[cfg(test)]
    /// Current UMQ length.
    pub(crate) fn umq_len(&self) -> usize {
        self.umq.len()
    }

    #[cfg(test)]
    /// Current PRQ length.
    pub(crate) fn prq_len(&self) -> usize {
        self.prq.len()
    }

    /// Process one event.
    pub fn step(&mut self, ev: MatchEvent) -> EventOutcome {
        match ev {
            MatchEvent::Arrive(msg) => {
                let hit = self.prq.iter().position(|r| r.matches(&msg));
                let stats = AttemptStats {
                    queue_len: self.prq.len(),
                    search_len: hit.map(|i| i + 1).unwrap_or(self.prq.len()),
                    matched: hit.is_some(),
                };
                self.prq_attempts.push(stats);
                match hit {
                    Some(i) => {
                        self.prq.remove(i);
                        self.matches += 1;
                        EventOutcome::ArriveMatchedPosted(i)
                    }
                    None => {
                        self.umq.push(msg);
                        self.umq_max = self.umq_max.max(self.umq.len());
                        EventOutcome::ArriveQueuedUnexpected
                    }
                }
            }
            MatchEvent::Post(req) => {
                let hit = self.umq.iter().position(|m| req.matches(m));
                let stats = AttemptStats {
                    queue_len: self.umq.len(),
                    search_len: hit.map(|i| i + 1).unwrap_or(self.umq.len()),
                    matched: hit.is_some(),
                };
                self.umq_attempts.push(stats);
                match hit {
                    Some(i) => {
                        self.umq.remove(i);
                        self.matches += 1;
                        EventOutcome::PostMatchedUnexpected(i)
                    }
                    None => {
                        self.prq.push(req);
                        self.prq_max = self.prq_max.max(self.prq.len());
                        EventOutcome::PostQueued
                    }
                }
            }
        }
    }
}

/// Validate that `assignment` (request index → message index) is a legal
/// matching for *any* semantics level: each assigned pair satisfies the
/// predicate, no message is consumed twice, and — because the batch
/// workloads used in the paper's experiments are total — a request may
/// only stay unmatched if every remaining message fails its predicate.
pub fn verify_valid_matching(
    msgs: &[Envelope],
    reqs: &[RecvRequest],
    assignment: &[Option<usize>],
) -> Result<(), String> {
    if assignment.len() != reqs.len() {
        return Err(format!(
            "assignment covers {} requests, expected {}",
            assignment.len(),
            reqs.len()
        ));
    }
    let mut consumed = vec![false; msgs.len()];
    for (j, a) in assignment.iter().enumerate() {
        if let Some(i) = *a {
            if i >= msgs.len() {
                return Err(format!("request {j} assigned out-of-range message {i}"));
            }
            if consumed[i] {
                return Err(format!("message {i} consumed twice (again by request {j})"));
            }
            consumed[i] = true;
            if !reqs[j].matches(&msgs[i]) {
                return Err(format!(
                    "request {j} ({:?}) does not match its assigned message {i} ({:?})",
                    reqs[j], msgs[i]
                ));
            }
        }
    }
    // Maximality: an unmatched request must have no live match.
    for (j, a) in assignment.iter().enumerate() {
        if a.is_none() {
            if let Some(i) = msgs
                .iter()
                .enumerate()
                .position(|(i, m)| !consumed[i] && reqs[j].matches(m))
            {
                return Err(format!(
                    "request {j} left unmatched although message {i} satisfies it"
                ));
            }
        }
    }
    Ok(())
}

/// Validate that `assignment` reproduces full MPI semantics: it must equal
/// the golden [`match_queues`] output bit for bit.
pub fn verify_mpi_matching(
    msgs: &[Envelope],
    reqs: &[RecvRequest],
    assignment: &[Option<usize>],
) -> Result<(), String> {
    let golden = match_queues(msgs, reqs);
    if golden.as_slice() != assignment {
        let diff = golden
            .iter()
            .zip(assignment)
            .enumerate()
            .find(|(_, (g, a))| g != a)
            .map(|(j, (g, a))| format!("first divergence at request {j}: golden {g:?}, got {a:?}"))
            .unwrap_or_default();
        return Err(format!("assignment diverges from MPI semantics; {diff}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{SrcSpec, TagSpec};
    use proptest::prelude::*;

    fn e(src: u32, tag: u32) -> Envelope {
        Envelope::new(src, tag, 0)
    }

    #[test]
    fn batch_matches_in_posted_order() {
        let msgs = vec![e(0, 1), e(1, 1), e(0, 2)];
        let reqs = vec![
            RecvRequest::exact(0, 2, 0),
            RecvRequest::any_source(1, 0),
            RecvRequest::exact(1, 1, 0),
        ];
        let a = match_queues(&msgs, &reqs);
        assert_eq!(a, vec![Some(2), Some(0), Some(1)]);
    }

    #[test]
    fn batch_ordering_earliest_message_wins() {
        // Two identical messages: the earlier one matches the first request.
        let msgs = vec![e(5, 9), e(5, 9)];
        let reqs = vec![RecvRequest::exact(5, 9, 0), RecvRequest::exact(5, 9, 0)];
        assert_eq!(match_queues(&msgs, &reqs), vec![Some(0), Some(1)]);
    }

    #[test]
    fn batch_unmatched_stays_none() {
        let msgs = vec![e(1, 1)];
        let reqs = vec![RecvRequest::exact(2, 2, 0), RecvRequest::exact(1, 1, 0)];
        assert_eq!(match_queues(&msgs, &reqs), vec![None, Some(0)]);
    }

    #[test]
    fn engine_unexpected_then_post() {
        let mut eng = ReferenceEngine::new();
        assert_eq!(
            eng.step(MatchEvent::Arrive(e(0, 1))),
            EventOutcome::ArriveQueuedUnexpected
        );
        assert_eq!(eng.umq_len(), 1);
        assert_eq!(
            eng.step(MatchEvent::Post(RecvRequest::exact(0, 1, 0))),
            EventOutcome::PostMatchedUnexpected(0)
        );
        assert_eq!(eng.umq_len(), 0);
        assert_eq!(eng.matches, 1);
    }

    #[test]
    fn engine_preposted_receive() {
        let mut eng = ReferenceEngine::new();
        eng.step(MatchEvent::Post(RecvRequest::any_source(4, 0)));
        assert_eq!(eng.prq_len(), 1);
        assert_eq!(
            eng.step(MatchEvent::Arrive(e(9, 4))),
            EventOutcome::ArriveMatchedPosted(0)
        );
        assert_eq!(eng.prq_len(), 0);
    }

    #[test]
    fn engine_tracks_high_water_and_search_lengths() {
        let mut eng = ReferenceEngine::new();
        for i in 0..10 {
            eng.step(MatchEvent::Arrive(e(i, 0)));
        }
        assert_eq!(eng.umq_max, 10);
        // Post matching the *last* arrival: search length 10.
        eng.step(MatchEvent::Post(RecvRequest::exact(9, 0, 0)));
        let last = eng.umq_attempts.last().unwrap();
        assert_eq!(last.search_len, 10);
        assert!(last.matched);
    }

    #[test]
    fn verify_catches_double_consumption() {
        let msgs = vec![e(0, 0), e(0, 0)];
        let reqs = vec![RecvRequest::exact(0, 0, 0), RecvRequest::exact(0, 0, 0)];
        assert!(verify_valid_matching(&msgs, &reqs, &[Some(0), Some(0)]).is_err());
        assert!(verify_valid_matching(&msgs, &reqs, &[Some(0), Some(1)]).is_ok());
        assert!(verify_valid_matching(&msgs, &reqs, &[Some(1), Some(0)]).is_ok());
        // but MPI semantics require arrival order:
        assert!(verify_mpi_matching(&msgs, &reqs, &[Some(1), Some(0)]).is_err());
        assert!(verify_mpi_matching(&msgs, &reqs, &[Some(0), Some(1)]).is_ok());
    }

    #[test]
    fn verify_catches_lazy_unmatched() {
        let msgs = vec![e(0, 0)];
        let reqs = vec![RecvRequest::exact(0, 0, 0)];
        assert!(verify_valid_matching(&msgs, &reqs, &[None]).is_err());
    }

    proptest! {
        /// The reference engine applied to "all arrivals then all posts"
        /// must agree with the batch matcher.
        #[test]
        fn engine_agrees_with_batch(
            msgs in proptest::collection::vec((0u32..8, 0u32..4), 0..40),
            reqs in proptest::collection::vec((0u32..8, 0u32..4, any::<bool>(), any::<bool>()), 0..40),
        ) {
            let msgs: Vec<Envelope> = msgs.into_iter().map(|(s, t)| e(s, t)).collect();
            let reqs: Vec<RecvRequest> = reqs
                .into_iter()
                .map(|(s, t, ws, wt)| RecvRequest {
                    src: if ws { SrcSpec::Any } else { SrcSpec::Rank(s) },
                    tag: if wt { TagSpec::Any } else { TagSpec::Tag(t) },
                    comm: 0,
                })
                .collect();
            let batch = match_queues(&msgs, &reqs);

            let mut eng = ReferenceEngine::new();
            for m in &msgs {
                eng.step(MatchEvent::Arrive(*m));
            }
            let mut engine_assignment = Vec::new();
            // Track which UMQ index maps to which original message.
            let mut umq_ids: Vec<usize> = (0..msgs.len()).collect();
            for r in &reqs {
                match eng.step(MatchEvent::Post(*r)) {
                    EventOutcome::PostMatchedUnexpected(i) => {
                        engine_assignment.push(Some(umq_ids.remove(i)));
                    }
                    _ => engine_assignment.push(None),
                }
            }
            prop_assert_eq!(batch, engine_assignment);
        }

        /// The batch matcher's own output always passes both verifiers.
        #[test]
        fn golden_output_is_self_consistent(
            msgs in proptest::collection::vec((0u32..6, 0u32..3), 0..30),
            reqs in proptest::collection::vec((0u32..6, 0u32..3), 0..30),
        ) {
            let msgs: Vec<Envelope> = msgs.into_iter().map(|(s, t)| e(s, t)).collect();
            let reqs: Vec<RecvRequest> =
                reqs.into_iter().map(|(s, t)| RecvRequest::exact(s, t, 0)).collect();
            let a = match_queues(&msgs, &reqs);
            prop_assert!(verify_valid_matching(&msgs, &reqs, &a).is_ok());
            prop_assert!(verify_mpi_matching(&msgs, &reqs, &a).is_ok());
        }
    }
}
