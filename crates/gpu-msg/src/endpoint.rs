//! One rank's matching state: the device-resident queues of the paper's
//! runtime model (Section II-C) and the communication kernel that
//! matches them.
//!
//! An [`Endpoint`] owns the UMQ (arrived, unmatched messages) and the PRQ
//! (posted, unmatched receives). Each queue keeps the SoA mirror a matrix
//! launch uploads and the counting digest the screen probes, and changes
//! only through `push` and `retain`, which move all three together.

use std::collections::HashMap;

use msg_match::prelude::*;
use obs::{ArgValue, FlowId, FlowPhase, SpanRecorder};
use simt_sim::Gpu;

use crate::message::{Completion, EndpointStats, Message, RecvHandle};
use crate::reorder::ReorderBuffer;

/// The unexpected-message queue, in arrival order.
#[derive(Default)]
struct Umq {
    msgs: Vec<Message>,
    soa: EnvelopeSoa,
    filter: EnvelopeFilter,
}

impl Umq {
    fn push(&mut self, m: Message) {
        self.soa.push(&m.envelope);
        self.filter.insert(&m.envelope);
        self.msgs.push(m);
    }

    /// Keep entry `i` iff `keep[i]`, in order.
    fn retain(&mut self, keep: &[bool]) {
        for (m, _) in self.msgs.iter().zip(keep).filter(|(_, &k)| !k) {
            self.filter.remove(&m.envelope);
        }
        self.soa.compact(keep);
        let mut keep = keep.iter();
        self.msgs.retain(|_| keep.next() == Some(&true));
    }
}

/// The posted-receive queue, in posted order.
#[derive(Default)]
struct Prq {
    posts: Vec<(RecvHandle, RecvRequest)>,
    soa: RequestSoa,
    filter: RequestFilter,
}

impl Prq {
    fn push(&mut self, post: (RecvHandle, RecvRequest)) {
        self.soa.push(&post.1);
        self.filter.insert(&post.1);
        self.posts.push(post);
    }

    /// Keep entry `j` iff `keep[j]`, in order.
    fn retain(&mut self, keep: &[bool]) {
        for ((_, r), _) in self.posts.iter().zip(keep).filter(|(_, &k)| !k) {
            self.filter.remove(r);
        }
        self.soa.compact(keep);
        let mut keep = keep.iter();
        self.posts.retain(|_| keep.next() == Some(&true));
    }
}

/// A GPU endpoint: its queues, its simulated device and the completions
/// its communication kernel has produced.
pub(crate) struct Endpoint {
    umq: Umq,
    prq: Prq,
    /// Matched receives awaiting collection by the application.
    completed: Vec<Completion>,
    pub(crate) gpu: Gpu,
    pub(crate) stats: EndpointStats,
    next_handle: u64,
    /// The user-level reorder stage, when the domain restores order.
    reorder: Option<ReorderBuffer>,
    /// Flow trace points (send / deposit / matched), when the domain traces.
    pub(crate) obs: Option<SpanRecorder>,
    /// Sends so far to each destination rank when tracing: the pair's flow sequence.
    sent_to: HashMap<u32, u64>,
}

impl Endpoint {
    pub(crate) fn new(gpu: Gpu, reorder: Option<ReorderBuffer>, obs: Option<SpanRecorder>) -> Self {
        Endpoint {
            umq: Umq::default(),
            prq: Prq::default(),
            completed: Vec::new(),
            gpu,
            stats: EndpointStats::default(),
            next_handle: 0,
            reorder,
            obs,
            sent_to: HashMap::new(),
        }
    }

    /// Count a send of `bytes` from rank `src` to `dst`. When tracing,
    /// record its `send` point under the pair's next flow id and return it.
    pub(crate) fn send(&mut self, src: u32, dst: u32, bytes: usize, now: u64) -> Option<FlowId> {
        self.stats.sent += 1;
        self.stats.bytes_sent += bytes as u64;
        let rec = self.obs.as_mut()?;
        let seq = self.sent_to.entry(dst).or_insert(0);
        let id = FlowId::fabric(src, dst, *seq);
        *seq += 1;
        let args = vec![("dst", ArgValue::U64(dst as u64))];
        rec.record_flow("send", id, FlowPhase::Start, now, args);
        Some(id)
    }

    /// Land a transported message (number `msg_seq` of its pair) in the
    /// UMQ, through the reorder stage when the domain restores order.
    pub(crate) fn arrive(&mut self, msg_seq: u64, message: Message, now_ns: u64) {
        self.stats.bytes_received += message.payload.len() as u64;
        if let (Some(fid), Some(rec)) = (message.flow, self.obs.as_mut()) {
            let args = vec![("msg_seq", ArgValue::U64(msg_seq))];
            rec.record_flow("deposit", FlowId(fid), FlowPhase::Step, now_ns, args);
        }
        match self.reorder.as_mut() {
            Some(rb) => {
                for m in rb.push(msg_seq, message) {
                    self.umq.push(m);
                }
                self.stats.reorder_duplicates = rb.duplicates;
                self.stats.reorder_high_water = rb.max_buffered;
            }
            None => self.umq.push(message),
        }
        self.stats.umq_high_water = self.stats.umq_high_water.max(self.umq.msgs.len());
    }

    /// Post a receive the domain's relaxation admits.
    pub(crate) fn post(&mut self, request: RecvRequest) -> RecvHandle {
        let handle = RecvHandle(self.next_handle);
        self.next_handle += 1;
        self.prq.push((handle, request));
        self.stats.prq_high_water = self.stats.prq_high_water.max(self.prq.posts.len());
        handle
    }

    /// Run the communication kernel once: screen both queues, match the
    /// survivors, complete the matched receives in posted order and
    /// retain the rest. Returns the number of new matches.
    ///
    /// # Errors
    /// Propagates an engine's rejection of its input.
    pub(crate) fn progress(&mut self, engine: EngineChoice, now_ns: u64) -> Result<usize, String> {
        if self.umq.msgs.is_empty() || self.prq.posts.is_empty() {
            return Ok(0);
        }
        let reqs: Vec<RecvRequest> = self.prq.posts.iter().map(|(_, r)| *r).collect();
        // Screen through the incrementally-maintained digests: entries
        // whose tuple can match nothing stay out of the launch, and a
        // launch whose batch empties on either side is skipped outright.
        let screen = screen_soa(&self.umq.filter, &self.prq.filter, &self.umq.soa, &reqs);
        self.stats.prefilter_probes += (self.umq.msgs.len() + reqs.len()) as u64;
        self.stats.prefilter_rejections += screen.rejected_msgs + screen.rejected_reqs;
        if screen.skip_launch() {
            self.stats.prefilter_skipped_launches += 1;
            return Ok(0);
        }
        let report = self.launch(engine, &screen)?;
        self.stats.kernel_cycles += report.cycles;
        self.stats.kernel_seconds += report.seconds;
        self.stats.launches += report.launches as u64;
        self.stats.matches += report.matches;
        self.stats.probe_dedups += report.probe_dedups;

        // Fan the screened assignment back out to full-queue indices.
        let assignment = expand_assignment(reqs.len(), &screen, &report.assignment);
        let mut keep_msgs = vec![true; self.umq.msgs.len()];
        let mut keep_posts = vec![true; reqs.len()];
        for (j, i) in assignment.iter().enumerate() {
            let Some(i) = *i else { continue };
            keep_msgs[i as usize] = false;
            keep_posts[j] = false;
            let (handle, message) = (self.prq.posts[j].0, self.umq.msgs[i as usize].clone());
            if let (Some(fid), Some(rec)) = (message.flow, self.obs.as_mut()) {
                rec.record_flow("matched", FlowId(fid), FlowPhase::End, now_ns, vec![]);
            }
            self.completed.push(Completion { handle, message });
        }
        self.umq.retain(&keep_msgs);
        self.prq.retain(&keep_posts);
        Ok(report.matches as usize)
    }

    /// Launch `engine` on the screened entries. The matrix engine runs
    /// its iterative rounds over the mirror's packed words; the others
    /// take one batch through [`MatchEngine::match_with`].
    fn launch(
        &mut self,
        engine: EngineChoice,
        screen: &ScreenReport,
    ) -> Result<GpuMatchReport, String> {
        // Every launch uploads fresh queue images: return the previous
        // launch's buffers first, or a long-lived endpoint's device
        // arena grows by a dozen buffers per call.
        self.gpu.reset_memory();
        if engine == EngineChoice::Matrix {
            let (mut msg_words, mut req_words) = (Vec::new(), Vec::new());
            let (umq, prq) = (&self.umq.soa, &self.prq.soa);
            umq.gather_words_into(&screen.msg_keep, &mut msg_words);
            prq.gather_words_into(&screen.req_keep, &mut req_words);
            let matrix = MatrixMatcher::default();
            return Ok(matrix.match_iterative_words(&mut self.gpu, &msg_words, &req_words));
        }
        let mut msgs = Vec::new();
        self.umq.soa.gather_into(&screen.msg_keep, &mut msgs);
        let posts = &self.prq.posts;
        let reqs: Vec<RecvRequest> = screen
            .req_keep
            .iter()
            .map(|&j| posts[j as usize].1)
            .collect();
        MatchEngine::default().match_with(&mut self.gpu, engine, &msgs, &reqs)
    }

    /// Drain the completions queued so far.
    pub(crate) fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completed)
    }

    /// Take the completion of `handle` alone, if it has matched.
    pub(crate) fn take_completion(&mut self, handle: RecvHandle) -> Option<Completion> {
        let pos = self.completed.iter().position(|c| c.handle == handle)?;
        Some(self.completed.swap_remove(pos))
    }

    /// Nothing queued, uncollected or held back for reordering.
    pub(crate) fn is_drained(&self) -> bool {
        self.umq.msgs.is_empty()
            && self.prq.posts.is_empty()
            && self.completed.is_empty()
            && self.reorder.as_ref().is_none_or(ReorderBuffer::is_drained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use msg_match::reference::verify_valid_matching;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use simt_sim::GpuGeneration;

    /// A message whose payload is its identity.
    fn message(id: u32, envelope: Envelope) -> Message {
        Message {
            envelope,
            payload: Bytes::from(id.to_le_bytes().to_vec()),
            flow: None,
        }
    }

    fn id_of(m: &Message) -> u32 {
        u32::from_le_bytes(m.payload[..4].try_into().unwrap())
    }

    fn envelope() -> impl Strategy<Value = Envelope> {
        (0u32..4, 0u32..3, 0u16..2).prop_map(|(src, tag, comm)| Envelope::new(src, tag, comm))
    }

    /// Source 4 and tag 3 stand for the wildcards.
    fn request() -> impl Strategy<Value = RecvRequest> {
        (0u32..5, 0u32..4, 0u16..2).prop_map(|(src, tag, comm)| RecvRequest {
            src: if src == 4 {
                SrcSpec::Any
            } else {
                SrcSpec::Rank(src)
            },
            tag: if tag == 3 {
                TagSpec::Any
            } else {
                TagSpec::Tag(tag)
            },
            comm,
        })
    }

    /// `keep[i]` for a queue of `len` entries, from the bits of `mask`.
    fn keep_mask(mask: u64, len: usize) -> Vec<bool> {
        (0..len).map(|i| mask >> (i % 64) & 1 == 1).collect()
    }

    #[derive(Debug, Clone)]
    enum QueueOp<T> {
        Push(T),
        Retain(u64),
    }

    fn queue_ops<T: std::fmt::Debug + Clone>(
        entry: impl Strategy<Value = T>,
    ) -> impl Strategy<Value = Vec<QueueOp<T>>> {
        let op = (0u8..4, entry, any::<u64>()).prop_map(|(k, e, mask)| match k {
            0..=2 => QueueOp::Push(e),
            _ => QueueOp::Retain(mask),
        });
        vec(op, 0..80)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After any push/retain history the UMQ holds the model's
        /// messages, its mirror their envelopes and packed words, and its
        /// digest the digest built from scratch over them.
        #[test]
        fn umq_mirror_and_digest_move_with_the_queue(ops in queue_ops(envelope())) {
            let (mut q, mut model) = (Umq::default(), Vec::new());
            for (id, op) in ops.into_iter().enumerate() {
                match op {
                    QueueOp::Push(e) => {
                        q.push(message(id as u32, e));
                        model.push((id as u32, e));
                    }
                    QueueOp::Retain(mask) => {
                        let keep = keep_mask(mask, model.len());
                        q.retain(&keep);
                        let mut keep = keep.iter();
                        model.retain(|_| *keep.next().unwrap());
                    }
                }
                let held: Vec<(u32, Envelope)> =
                    q.msgs.iter().map(|m| (id_of(m), m.envelope)).collect();
                prop_assert_eq!(&held, &model);
                let mirror: Vec<Envelope> = (0..q.soa.len()).map(|i| q.soa.get(i)).collect();
                let envelopes: Vec<Envelope> = model.iter().map(|m| m.1).collect();
                prop_assert_eq!(mirror, envelopes);
                let words: Vec<u64> = model.iter().map(|m| m.1.pack()).collect();
                prop_assert_eq!(q.soa.words(), &words[..]);
                prop_assert!(q.filter == EnvelopeFilter::build(model.iter().map(|m| &m.1)));
            }
        }

        /// The PRQ's counterpart: posts, packed words and digest follow
        /// the model through every push and retain.
        #[test]
        fn prq_mirror_and_digest_move_with_the_queue(ops in queue_ops(request())) {
            let (mut q, mut model) = (Prq::default(), Vec::new());
            for (id, op) in ops.into_iter().enumerate() {
                match op {
                    QueueOp::Push(r) => {
                        q.push((RecvHandle(id as u64), r));
                        model.push((RecvHandle(id as u64), r));
                    }
                    QueueOp::Retain(mask) => {
                        let keep = keep_mask(mask, model.len());
                        q.retain(&keep);
                        let mut keep = keep.iter();
                        model.retain(|_| *keep.next().unwrap());
                    }
                }
                prop_assert_eq!(&q.posts, &model);
                let words: Vec<u64> = model.iter().map(|p| p.1.pack()).collect();
                prop_assert_eq!(q.soa.words(), &words[..]);
                prop_assert!(q.filter == RequestFilter::build(model.iter().map(|p| &p.1)));
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Arrive(Envelope),
        Post(RecvRequest),
        Progress,
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let op = (0u8..9, envelope(), request()).prop_map(|(k, e, r)| match k {
            0..=3 => Op::Arrive(e),
            4..=7 => Op::Post(r),
            _ => Op::Progress,
        });
        vec(op, 0..48)
    }

    /// `request` made legal for `engine`: partitioning drops the source
    /// wildcard, hashing both.
    fn legal(engine: EngineChoice, mut request: RecvRequest) -> RecvRequest {
        if engine != EngineChoice::Matrix && request.src == SrcSpec::Any {
            request.src = SrcSpec::Rank(0);
        }
        if engine == EngineChoice::Hash && request.tag == TagSpec::Any {
            request.tag = TagSpec::Tag(0);
        }
        request
    }

    /// Drive one endpoint through `ops` (and a final progress) and hold
    /// every progress call to the reference over the model queues: the
    /// matrix and partitioned engines must complete exactly the pairs
    /// `match_queues` assigns, in posted order; the hash engine a valid,
    /// maximal matching.
    fn drive(engine: EngineChoice, ops: &[Op]) -> Result<(), TestCaseError> {
        let mut ep = Endpoint::new(Gpu::new(GpuGeneration::PascalGtx1080), None, None);
        let mut umq: Vec<(u32, Envelope)> = Vec::new();
        let mut prq: Vec<(RecvHandle, RecvRequest)> = Vec::new();
        for (id, op) in ops.iter().chain([&Op::Progress]).enumerate() {
            match op {
                Op::Arrive(e) => {
                    ep.arrive(id as u64, message(id as u32, *e), 0);
                    umq.push((id as u32, *e));
                }
                Op::Post(r) => {
                    let r = legal(engine, *r);
                    prq.push((ep.post(r), r));
                }
                Op::Progress => {
                    let n = ep.progress(engine, 0).map_err(TestCaseError::fail)?;
                    let got: Vec<(RecvHandle, u32)> = ep
                        .take_completions()
                        .iter()
                        .map(|c| (c.handle, id_of(&c.message)))
                        .collect();
                    prop_assert_eq!(n, got.len());
                    let msgs: Vec<Envelope> = umq.iter().map(|m| m.1).collect();
                    let reqs: Vec<RecvRequest> = prq.iter().map(|p| p.1).collect();
                    if engine == EngineChoice::Hash {
                        let assignment: Vec<Option<usize>> = prq
                            .iter()
                            .map(|(h, _)| {
                                let (_, id) = got.iter().find(|g| g.0 == *h)?;
                                umq.iter().position(|m| m.0 == *id)
                            })
                            .collect();
                        prop_assert_eq!(assignment.iter().flatten().count(), got.len());
                        verify_valid_matching(&msgs, &reqs, &assignment)
                            .map_err(TestCaseError::fail)?;
                        prop_assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "posted order");
                    } else {
                        let want: Vec<(RecvHandle, u32)> = match_queues(&msgs, &reqs)
                            .iter()
                            .enumerate()
                            .filter_map(|(j, i)| i.map(|i| (prq[j].0, umq[i].0)))
                            .collect();
                        prop_assert_eq!(&got, &want);
                    }
                    umq.retain(|m| got.iter().all(|g| g.1 != m.0));
                    prq.retain(|p| got.iter().all(|g| g.0 != p.0));
                    let held: Vec<u32> = ep.umq.msgs.iter().map(id_of).collect();
                    prop_assert_eq!(held, umq.iter().map(|m| m.0).collect::<Vec<_>>());
                    prop_assert_eq!(&ep.prq.posts, &prq);
                }
            }
        }
        prop_assert_eq!(ep.is_drained(), umq.is_empty() && prq.is_empty());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn interleaved_arrive_post_progress_matches_the_reference(ops in ops()) {
            for engine in [
                EngineChoice::Matrix,
                EngineChoice::Partitioned { queues: 4 },
                EngineChoice::Hash,
            ] {
                drive(engine, &ops)?;
            }
        }
    }
}
