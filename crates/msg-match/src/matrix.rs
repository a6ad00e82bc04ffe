//! The fully MPI-compliant GPU matching algorithm (paper Section V), and
//! the scan/reduce kernel and round driver the rank-partitioned matcher
//! ([`crate::partitioned`]) shares with it.
//!
//! Two phases over a *vote matrix*:
//!
//! * **Scan** (Algorithm 1): each thread owns one message; for every
//!   receive request in the current window the warp ballots "does my
//!   message satisfy this request?", producing a 32-bit vote word per
//!   (warp, request). Rows of the matrix are warps, columns are requests.
//! * **Reduce** (Algorithm 2): one warp walks the columns *sequentially*
//!   (ordering creates the dependency): lane *l* holds row *l*'s vote and
//!   a 32-bit message mask; `ballot(vote & mask)` finds the bidding rows,
//!   `ffs` picks the lowest (earliest messages live in lower rows), a
//!   second `ffs` picks the bit within the row, and the winner's mask bit
//!   is erased so a message matches at most one request.
//!
//! The two phases are pipelined over a double-buffered window: while the
//! reduce warp drains window *k*, the scan warps fill window *k+1*. When
//! the queue reaches 1024 entries all 32 warps are needed for the scan,
//! the reduce warp is no longer free, and the phases serialise — the
//! performance drop the paper shows at 1024 (Figure 4).
//!
//! One kernel serves both matchers: it runs the scan/reduce over queue
//! slices grouped by CTA. The compliant matcher launches one slice (its
//! whole batch); rank partitioning launches one per `src % k` queue. Each
//! slice's vote matrix is column-major with one word per scan warp, so
//! column *i* starts at word `i * rows`, and padded by one warp's width:
//! the reduce gathers 32 consecutive words per column, conflict free, and
//! the lanes past `rows` start with an empty mask, so what they read
//! never bids.
//!
//! Queues longer than 1024 are processed in rounds of up to 1024
//! messages × 1024 requests per queue with a compaction step in between
//! ([`MatrixMatcher::match_iterative`]).

use simt_sim::{
    lanes, BufferId, CtaCtx, CtaKernel, Gpu, Lanes, LaunchConfig, LaunchReport, SharedId, WarpCtx,
    WARP_SIZE,
};

use crate::envelope::{Envelope, RecvRequest, WarpWords};
use crate::gpu_common::{decode_assignment, GpuMatchReport, NO_MATCH};

/// Default scan window: requests per matrix tile. 64 columns double
/// buffered at 32 rows of `u32` (plus the padding) is just over 16 KiB
/// of shared memory — the footprint that lets exactly two CTAs stay
/// resident, as the paper reports from the occupancy calculator.
const DEFAULT_WINDOW: usize = 64;

/// Calibration of per-element overhead, in ALU instructions, covering the
/// work the recorded ops do not represent explicitly (envelope unpacking,
/// queue-object indirection, loop/branch bookkeeping in the CUDA
/// original). Calibrated once against the paper's reported rates.
#[derive(Debug, Clone, Copy)]
pub struct MatrixCosts {
    /// Extra ALU per scanned request per warp.
    pub(crate) scan_overhead: u32,
    /// Extra ALU per reduced column.
    pub(crate) reduce_overhead: u32,
}

impl Default for MatrixCosts {
    fn default() -> Self {
        MatrixCosts {
            scan_overhead: 6,
            reduce_overhead: 10,
        }
    }
}

/// The MPI-compliant matrix matcher.
#[derive(Debug, Clone)]
pub struct MatrixMatcher {
    /// Requests per scan window (matrix width per tile).
    pub window: usize,
    /// Overhead calibration.
    pub costs: MatrixCosts,
    /// Disable scan/reduce pipelining (ablation): the reduce of window
    /// *k* only starts after *every* scan has finished.
    pub disable_pipelining: bool,
    /// Wildcard probe dedup: when adjacent columns broadcast identical
    /// request words (duplicate `(Any, tag)` / `(src, Any)` probes posted
    /// back to back), the scan reuses the previous column's ballot
    /// instead of re-evaluating every lane predicate. The reduce still
    /// walks every column in posted order, so results are fanned out in
    /// posting order and assignments are byte-identical — only
    /// instruction and stall counts drop.
    pub dedup_probes: bool,
}

impl Default for MatrixMatcher {
    fn default() -> Self {
        MatrixMatcher {
            window: DEFAULT_WINDOW,
            costs: MatrixCosts::default(),
            disable_pipelining: false,
            dedup_probes: true,
        }
    }
}

/// Maximum batch (messages or requests) a single kernel launch handles:
/// one thread per message, at most 1024 threads per CTA.
pub const MAX_BATCH: usize = WARP_SIZE * 32;

/// Which matcher a launch serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Engine {
    /// The compliant matcher: one queue, and the single-warp kernel when
    /// it holds at most 32 messages.
    Compliant,
    /// Rank partitioning: one queue per `src % k` class, always the
    /// matrix kernel.
    Partitioned,
}

/// One queue's slice of a launch, as seen by the kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueSlice {
    /// Offset of this queue's messages in the packed message buffer.
    msg_off: u32,
    n_msgs: u32,
    /// Offset of this queue's requests in the packed request buffer.
    req_off: u32,
    n_reqs: u32,
    /// Warps scanning messages: the rows of this queue's vote matrix.
    rows: u32,
    /// First warp (within the CTA) of this queue's group.
    warp_base: u32,
}

impl QueueSlice {
    pub(crate) fn new(msg_off: usize, n_msgs: usize, req_off: usize, n_reqs: usize) -> Self {
        QueueSlice {
            msg_off: msg_off as u32,
            n_msgs: n_msgs as u32,
            req_off: req_off as u32,
            n_reqs: n_reqs as u32,
            rows: (n_msgs as u32).div_ceil(WARP_SIZE as u32),
            warp_base: 0,
        }
    }

    /// Warps this queue's group occupies: its scan warps plus a
    /// dedicated reduce warp, unless the scan already fills a CTA.
    fn group_warps(&self) -> u32 {
        (self.rows + 1).min(32)
    }

    /// One past the group's last warp.
    fn warp_end(&self) -> u32 {
        self.warp_base + self.group_warps()
    }

    /// Warp running the reduce: the dedicated one after the scan warps,
    /// or the group's first warp when the scan fills the CTA.
    fn reduce_warp(&self) -> usize {
        let offset = if self.rows < 32 { self.rows } else { 0 };
        (self.warp_base + offset) as usize
    }
}

/// Pack queue groups into CTAs, first fit, at most 32 warps each
/// (queues never span CTAs); returns the slices each CTA serves.
pub(crate) fn pack_ctas(slices: impl IntoIterator<Item = QueueSlice>) -> Vec<Vec<QueueSlice>> {
    let mut per_cta: Vec<Vec<QueueSlice>> = Vec::new();
    for mut s in slices {
        let used = |cta: &Vec<QueueSlice>| cta.last().map_or(0, QueueSlice::warp_end);
        let cta = per_cta
            .iter()
            .position(|c| used(c) + s.group_warps() <= 32)
            .unwrap_or_else(|| {
                per_cta.push(Vec::new());
                per_cta.len() - 1
            });
        s.warp_base = used(&per_cta[cta]);
        per_cta[cta].push(s);
    }
    per_cta
}

struct MatrixKernel {
    name: &'static str,
    msgq: BufferId<u64>,
    recvq: BufferId<u64>,
    /// Result per packed request (packed message index or `NO_MATCH`).
    result: BufferId<u32>,
    /// Queue slices grouped by CTA: CTA `c` serves `per_cta[c]`.
    per_cta: Vec<Vec<QueueSlice>>,
    window: usize,
    costs: MatrixCosts,
    pipelined: bool,
    dedup: bool,
}

impl MatrixKernel {
    fn windows(&self, q: &QueueSlice) -> usize {
        (q.n_reqs as usize).div_ceil(self.window)
    }

    fn scan(
        &self,
        w: &mut WarpCtx<'_>,
        q: &QueueSlice,
        win: usize,
        buf: SharedId<u32>,
        msgs: &WarpWords,
    ) {
        let win_base = win * self.window;
        let win_len = self.window.min(q.n_reqs as usize - win_base);
        let (rows, row) = (q.rows as usize, w.warp_id() - q.warp_base as usize);
        // Requests are staged through registers: one coalesced load per 32
        // requests, then `shfl` broadcasts each to the whole warp. This is
        // the standard CUDA idiom for Algorithm 1's inner loop — a naive
        // per-iteration pointer chase would serialise on memory latency.
        let mut chunk_start = 0usize;
        // (request word, ballot) of the previous column, for probe dedup.
        let mut prev: Option<(u64, u32)> = None;
        while chunk_start < win_len {
            let chunk = WARP_SIZE.min(win_len - chunk_start);
            let base = q.req_off + (win_base + chunk_start) as u32;
            w.charge_alu(2);
            let (req_lanes, tok) = w.ld_global_run(self.recvq, base, chunk as u32);
            let mut load_dep = Some(tok);
            for j in 0..chunk {
                // Loop bookkeeping + envelope comparison overhead.
                w.charge_alu(1 + self.costs.scan_overhead);
                let req_word = w.shfl(&req_lanes, j);
                let vote = match prev {
                    // Probe dedup: an identical adjacent request word
                    // yields the identical ballot, so one register
                    // compare replaces the per-lane predicate chain.
                    Some((pw, pv)) if self.dedup && pw == req_word => {
                        w.charge_alu(1);
                        pv
                    }
                    _ => w.ballot_bits_dep(load_dep.take(), msgs.ballot(req_word)),
                };
                prev = Some((req_word, vote));
                let slot = ((chunk_start + j) * rows + row) as u32;
                w.st_shared_leader(buf, slot, vote);
            }
            chunk_start += chunk;
        }
    }

    fn reduce(
        &self,
        w: &mut WarpCtx<'_>,
        q: &QueueSlice,
        win: usize,
        buf: SharedId<u32>,
        masks: &mut Lanes<u32>,
    ) {
        let win_base = win * self.window;
        let win_len = self.window.min(q.n_reqs as usize - win_base);
        for i in 0..win_len {
            w.charge_alu(1 + self.costs.reduce_overhead);
            // Lane l reads row l's vote for column i; lanes past the rows
            // read the next column's words under an empty mask.
            let (col, tok) = w.ld_shared_run(buf, (i * q.rows as usize) as u32, WARP_SIZE as u32);
            // The reduce completes each match record against the receive
            // descriptor in global memory (Algorithm 2's result handling);
            // this global access is the long pole of the per-column chain.
            let req = q.req_off + (win_base + i) as u32;
            let (_req_desc, gtok) = w.ld_global_bcast(self.recvq, req);
            let _ = tok;
            let mut bids = 0u32;
            for (lane, (&v, &m)) in col.0.iter().zip(&masks.0).enumerate() {
                bids |= u32::from(v & m != 0) << lane;
            }
            let bidders = w.ballot_bits_dep(Some(gtok), bids);
            if bidders != 0 {
                // ffs picks the lowest row = earliest messages (rows map
                // to ascending message indices).
                w.charge_alu(2); // ffs(bidders), thread-id compare
                let winner = (lanes::ffs(bidders) - 1) as usize;
                let bit = lanes::ffs(col.get(winner) & masks.get(winner)) - 1;
                w.charge_alu(2); // ffs(vote & mask), mask erase
                masks.set(winner, masks.get(winner) & !(1u32 << bit));
                let msg_idx = q.msg_off + (winner * WARP_SIZE) as u32 + bit;
                w.st_global_leader(self.result, req, msg_idx);
            }
        }
    }
}

impl CtaKernel for MatrixKernel {
    fn name(&self) -> &'static str {
        self.name
    }

    fn execute(&mut self, cta: &mut CtaCtx<'_>) {
        let k = &*self;
        let queues = &k.per_cta[cta.cta_id()];
        // Per queue, a double-buffered vote matrix (see the module docs
        // for the layout and its padding).
        let bufs: Vec<[SharedId<u32>; 2]> = queues
            .iter()
            .map(|q| {
                let words = q.rows as usize * k.window + WARP_SIZE;
                [cta.alloc_shared(words), cta.alloc_shared(words)]
            })
            .collect();
        let mut owner: Vec<Option<usize>> = vec![None; cta.warp_count()];
        for (qi, q) in queues.iter().enumerate() {
            owner[q.warp_base as usize..q.warp_end() as usize].fill(Some(qi));
        }
        let is_scan = |wid: usize, q: &QueueSlice| wid - (q.warp_base as usize) < q.rows as usize;

        // Each scan warp loads its 32 messages once (kept in registers by
        // the CUDA original), indexed for its ballots.
        let mut msgs: Vec<Option<WarpWords>> = vec![None; owner.len()];
        cta.for_each_warp(|w| {
            let Some(q) = owner[w.warp_id()].map(|qi| &queues[qi]) else {
                return;
            };
            if !is_scan(w.warp_id(), q) {
                return;
            }
            let base = (w.warp_id() as u32 - q.warp_base) * WARP_SIZE as u32;
            let live = live_lanes(q.n_msgs - base);
            let idx = w.lane_ids().map(|l| {
                if live >> l & 1 == 1 {
                    q.msg_off + base + l
                } else {
                    0
                }
            });
            w.charge_alu(2);
            let (words, _tok) = w.ld_global(k.msgq, &idx);
            msgs[w.warp_id()] = Some(WarpWords::new(&words, live));
        });
        let msgs = |wid: usize| msgs[wid].as_ref().expect("scan warps index their messages");

        // Row mask state lives in each reduce warp's registers; lanes past
        // the queue's rows never bid.
        let mut masks: Vec<Lanes<u32>> = queues
            .iter()
            .map(|q| Lanes::from_fn(|l| if l < q.rows as usize { u32::MAX } else { 0 }))
            .collect();
        let n_windows = queues.iter().map(|q| k.windows(q)).max().unwrap_or(0);
        if k.pipelined {
            // scan(win) and reduce(win - 1) share a segment.
            for win in 0..=n_windows {
                cta.for_each_warp(|w| {
                    let wid = w.warp_id();
                    let Some(qi) = owner[wid] else {
                        return;
                    };
                    let q = &queues[qi];
                    if win < k.windows(q) && is_scan(wid, q) {
                        let buf = bufs[qi][win % 2];
                        k.scan(w, q, win, buf, msgs(wid));
                    }
                    if win > 0 && win - 1 < k.windows(q) && wid == q.reduce_warp() {
                        k.reduce(w, q, win - 1, bufs[qi][(win + 1) % 2], &mut masks[qi]);
                    }
                });
            }
        } else {
            // Ablation (the compliant matcher's one queue): all scans,
            // barrier, then the reduce, window by window.
            let q = &queues[0];
            for win in 0..n_windows {
                let buf = bufs[0][win % 2];
                cta.for_each_warp(|w| {
                    let wid = w.warp_id();
                    if is_scan(wid, q) {
                        k.scan(w, q, win, buf, msgs(wid));
                    }
                });
                cta.warp(q.reduce_warp(), |w| {
                    k.reduce(w, q, win, buf, &mut masks[0]);
                });
            }
        }
    }
}

/// Lanes `0..n` of a warp, as ballot bits.
fn live_lanes(n: u32) -> u32 {
    if n >= WARP_SIZE as u32 {
        u32::MAX
    } else {
        (1 << n) - 1
    }
}

/// Single-warp fast path for tiny queues (the paper: "queues with less
/// than 64 elements are scanned by a single warp and no matrix is
/// generated"). One warp holds up to 32 messages in registers and
/// resolves each request with a direct ballot.
struct SmallKernel {
    msgq: BufferId<u64>,
    recvq: BufferId<u64>,
    result: BufferId<u32>,
    n_msgs: usize,
    n_reqs: usize,
    costs: MatrixCosts,
    dedup: bool,
}

impl CtaKernel for SmallKernel {
    fn name(&self) -> &'static str {
        "matrix_small"
    }

    fn execute(&mut self, cta: &mut CtaCtx<'_>) {
        let (msgq, recvq, result) = (self.msgq, self.recvq, self.result);
        let (n_msgs, n_reqs) = (self.n_msgs, self.n_reqs);
        let costs = self.costs;
        let dedup = self.dedup;
        cta.for_each_warp(|w| {
            let tid = w.thread_ids();
            let idx = tid.map(|t| if (t as usize) < n_msgs { t } else { 0 });
            w.charge_alu(2);
            let (words, _tok) = w.ld_global(msgq, &idx);
            let msgs = WarpWords::new(&words, live_lanes(n_msgs as u32));
            let mut mask: u32 = u32::MAX;
            let mut chunk_start = 0usize;
            // (request word, unmasked ballot) of the previous request:
            // probe dedup reuses the raw vote and skips the descriptor
            // reload; the per-request mask update below still runs, so
            // duplicates consume messages in posting order.
            let mut prev: Option<(u64, u32)> = None;
            while chunk_start < n_reqs {
                let chunk = WARP_SIZE.min(n_reqs - chunk_start);
                w.charge_alu(2);
                let (req_lanes, tok) = w.ld_global_run(recvq, chunk_start as u32, chunk as u32);
                let mut load_dep = Some(tok);
                for j in 0..chunk {
                    w.charge_alu(1 + costs.reduce_overhead);
                    let req_word = w.shfl(&req_lanes, j);
                    let raw = match prev {
                        Some((pw, pv)) if dedup && pw == req_word => {
                            w.charge_alu(1);
                            pv
                        }
                        _ => {
                            // Same per-request chain as the matrix
                            // reduce: the match record touches the
                            // receive descriptor in global memory.
                            let (_req_desc, gtok) =
                                w.ld_global_bcast(recvq, (chunk_start + j) as u32);
                            let _ = load_dep.take();
                            w.ballot_bits_dep(Some(gtok), msgs.ballot(req_word))
                        }
                    };
                    prev = Some((req_word, raw));
                    let vote = raw & mask;
                    if vote != 0 {
                        w.charge_alu(2);
                        let bit = lanes::ffs(vote) - 1;
                        mask &= !(1u32 << bit);
                        w.st_global_leader(result, (chunk_start + j) as u32, bit);
                    }
                }
                chunk_start += chunk;
            }
        });
    }
}

impl MatrixMatcher {
    /// Match one batch (≤ [`MAX_BATCH`] messages and requests) in a single
    /// kernel launch on a single SM.
    ///
    /// # Panics
    /// Panics if either side exceeds [`MAX_BATCH`]; use
    /// [`MatrixMatcher::match_iterative`] for longer queues.
    pub fn match_batch(
        &self,
        gpu: &mut Gpu,
        msgs: &[Envelope],
        reqs: &[RecvRequest],
    ) -> GpuMatchReport {
        assert!(
            msgs.len() <= MAX_BATCH && reqs.len() <= MAX_BATCH,
            "batch exceeds one-CTA capacity; use match_iterative"
        );
        let msg_words: Vec<u64> = msgs.iter().map(Envelope::pack).collect();
        let req_words: Vec<u64> = reqs.iter().map(RecvRequest::pack).collect();
        self.match_words(gpu, &msg_words, &req_words)
    }

    /// [`MatrixMatcher::match_batch`] over already-packed header words —
    /// the entry point for structure-of-arrays queues whose maintained
    /// `words` column ([`crate::soa::EnvelopeSoa`]) uploads directly,
    /// skipping the per-launch AoS gather and re-pack.
    ///
    /// # Panics
    /// Panics if either side exceeds [`MAX_BATCH`].
    pub fn match_words(
        &self,
        gpu: &mut Gpu,
        msg_words: &[u64],
        req_words: &[u64],
    ) -> GpuMatchReport {
        assert!(
            msg_words.len() <= MAX_BATCH && req_words.len() <= MAX_BATCH,
            "batch exceeds one-CTA capacity; use match_iterative_words"
        );
        if msg_words.is_empty() || req_words.is_empty() {
            return GpuMatchReport::from_launches(vec![None; req_words.len()], &[]);
        }
        let slice = QueueSlice::new(0, msg_words.len(), 0, req_words.len());
        let (assignment, launch) =
            self.launch(gpu, Engine::Compliant, msg_words, req_words, &[slice]);
        let mut report = GpuMatchReport::from_launches(assignment, &[launch]);
        report.probe_dedups = self.count_dedups(req_words);
        report
    }

    /// Adjacent duplicate request words the scan serves by ballot reuse.
    fn count_dedups(&self, req_words: &[u64]) -> u64 {
        if !self.dedup_probes {
            return 0;
        }
        req_words.windows(2).filter(|w| w[0] == w[1]).count() as u64
    }

    /// Launch one round over `slices` of the packed words; returns the
    /// packed message index each packed request matched.
    fn launch(
        &self,
        gpu: &mut Gpu,
        engine: Engine,
        msg_words: &[u64],
        req_words: &[u64],
        slices: &[QueueSlice],
    ) -> (Vec<Option<u32>>, LaunchReport) {
        let msgq = gpu.mem.alloc_from(msg_words);
        let recvq = gpu.mem.alloc_from(req_words);
        let result = gpu.mem.alloc_from(&vec![NO_MATCH; req_words.len()]);
        let launch = match slices {
            [q] if engine == Engine::Compliant && q.n_msgs as usize <= WARP_SIZE => {
                let mut k = SmallKernel {
                    msgq,
                    recvq,
                    result,
                    n_msgs: msg_words.len(),
                    n_reqs: req_words.len(),
                    costs: self.costs,
                    dedup: self.dedup_probes,
                };
                gpu.launch(&mut k, LaunchConfig::single_sm(1, WARP_SIZE as u32))
            }
            _ => {
                let per_cta = pack_ctas(slices.iter().copied());
                let warps = per_cta.iter().flatten().map(QueueSlice::warp_end).max();
                let config = LaunchConfig::single_sm(
                    per_cta.len() as u32,
                    warps.unwrap_or(1) * WARP_SIZE as u32,
                );
                let mut k = MatrixKernel {
                    name: match engine {
                        Engine::Compliant => "matrix_match",
                        Engine::Partitioned => "partitioned_match",
                    },
                    msgq,
                    recvq,
                    result,
                    per_cta,
                    window: self.window,
                    costs: self.costs,
                    pipelined: !self.disable_pipelining,
                    dedup: self.dedup_probes,
                };
                gpu.launch(&mut k, config)
            }
        };
        (decode_assignment(&gpu.mem.read_vec(result)), launch)
    }

    /// Match arbitrarily long queues by iterating head-of-queue batches
    /// with compaction in between, as Section V-B describes. Returns the
    /// global assignment plus the aggregate timing.
    ///
    /// Each iteration matches the first ≤ 1024 unconsumed messages against
    /// the first ≤ 1024 unmatched requests, then compacts both queues. If
    /// an iteration makes no progress the remaining requests genuinely
    /// have no match in the remaining messages *within the lookahead
    /// window*; the window then advances to guarantee termination.
    pub fn match_iterative(
        &self,
        gpu: &mut Gpu,
        msgs: &[Envelope],
        reqs: &[RecvRequest],
    ) -> GpuMatchReport {
        let msg_words: Vec<u64> = msgs.iter().map(Envelope::pack).collect();
        let req_words: Vec<u64> = reqs.iter().map(RecvRequest::pack).collect();
        self.match_iterative_words(gpu, &msg_words, &req_words)
    }

    /// [`MatrixMatcher::match_iterative`] over already-packed header
    /// words (see [`MatrixMatcher::match_words`]): the queue is packed
    /// once — or never, when a structure-of-arrays queue maintains the
    /// column — instead of once per iteration.
    pub fn match_iterative_words(
        &self,
        gpu: &mut Gpu,
        msg_words: &[u64],
        req_words: &[u64],
    ) -> GpuMatchReport {
        let queue = (
            (0..msg_words.len() as u32).collect(),
            (0..req_words.len() as u32).collect(),
        );
        self.match_queues(gpu, Engine::Compliant, msg_words, req_words, vec![queue])
    }

    /// The round driver both matchers share. `queues` lists each queue's
    /// message and request ids (indices into the packed words) in order.
    /// Every round launches one grid over each queue's first ≤ 1024 live
    /// messages and the ≤ 1024 live requests from its window start. A
    /// queue that matched drops its matched ids and restarts its window;
    /// one that matched nothing advances its window past the batch, so
    /// every round makes progress and the driver ends once no queue has
    /// both messages and requests left in view.
    pub(crate) fn match_queues(
        &self,
        gpu: &mut Gpu,
        engine: Engine,
        msg_words: &[u64],
        req_words: &[u64],
        queues: Vec<(Vec<u32>, Vec<u32>)>,
    ) -> GpuMatchReport {
        /// Marks a matched id for removal.
        const GONE: u32 = u32::MAX;
        let mut assignment: Vec<Option<u32>> = vec![None; req_words.len()];
        let mut launches = Vec::new();
        let mut probe_dedups = 0u64;
        // Per queue: live message ids, live request ids, window start.
        let mut queues: Vec<_> = queues.into_iter().map(|(m, r)| (m, r, 0usize)).collect();
        let in_view = |q: &(Vec<u32>, Vec<u32>, usize)| !q.0.is_empty() && q.2 < q.1.len();
        let (mut mb, mut rb, mut slices) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            mb.clear();
            rb.clear();
            slices.clear();
            for (mids, rids, start) in queues.iter().filter(|q| in_view(q)) {
                let m = &mids[..mids.len().min(MAX_BATCH)];
                let r = &rids[*start..rids.len().min(start + MAX_BATCH)];
                slices.push(QueueSlice::new(mb.len(), m.len(), rb.len(), r.len()));
                mb.extend(m.iter().map(|&i| msg_words[i as usize]));
                rb.extend(r.iter().map(|&j| req_words[j as usize]));
            }
            if slices.is_empty() {
                break;
            }
            let (batch, launch) = self.launch(gpu, engine, &mb, &rb, &slices);
            probe_dedups += self.count_dedups(&rb);
            launches.push(launch);

            // Compaction (the prefix-scan + move step); cost is charged by
            // the dedicated compaction kernel in `crate::compaction` when
            // the caller opts in — here we track the queue bookkeeping.
            let ran = queues.iter_mut().filter(|q| in_view(q));
            for ((mids, rids, start), s) in ran.zip(&slices) {
                let (req_off, n_reqs) = (s.req_off as usize, s.n_reqs as usize);
                let mut matched = false;
                for (bj, bm) in batch[req_off..req_off + n_reqs].iter().enumerate() {
                    if let Some(bi) = bm {
                        let mi = (bi - s.msg_off) as usize;
                        assignment[rids[*start + bj] as usize] = Some(mids[mi]);
                        (mids[mi], rids[*start + bj]) = (GONE, GONE);
                        matched = true;
                    }
                }
                if matched {
                    mids.retain(|&i| i != GONE);
                    rids.retain(|&j| j != GONE);
                    *start = 0;
                } else {
                    // No request in this window can match the queue's
                    // message head: advance the window (mirrors tolerating
                    // "bubbles" instead of compacting).
                    *start += n_reqs;
                }
            }
        }
        let mut report = GpuMatchReport::from_launches(assignment, &launches);
        report.probe_dedups = probe_dedups;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{SrcSpec, TagSpec};
    use crate::reference::{match_queues, verify_mpi_matching};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use simt_sim::GpuGeneration;

    fn e(src: u32, tag: u32) -> Envelope {
        Envelope::new(src, tag, 0)
    }

    fn check_mpi(msgs: &[Envelope], reqs: &[RecvRequest]) -> GpuMatchReport {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let m = MatrixMatcher::default();
        let r = if msgs.len() <= MAX_BATCH && reqs.len() <= MAX_BATCH {
            m.match_batch(&mut gpu, msgs, reqs)
        } else {
            m.match_iterative(&mut gpu, msgs, reqs)
        };
        let a: Vec<Option<usize>> = r.assignment.iter().map(|x| x.map(|v| v as usize)).collect();
        verify_mpi_matching(msgs, reqs, &a).expect("must equal MPI semantics");
        r
    }

    #[test]
    fn empty_queues() {
        let r = check_mpi(&[], &[]);
        assert_eq!(r.matches, 0);
    }

    #[test]
    fn single_pair() {
        let r = check_mpi(&[e(1, 2)], &[RecvRequest::exact(1, 2, 0)]);
        assert_eq!(r.matches, 1);
    }

    #[test]
    fn small_queue_with_wildcards() {
        let msgs = vec![e(0, 1), e(1, 1), e(2, 2), e(0, 2)];
        let reqs = vec![
            RecvRequest::any_source(2, 0),
            RecvRequest::exact(0, 1, 0),
            RecvRequest::any_tag(1, 0),
            RecvRequest::exact(9, 9, 0),
        ];
        let r = check_mpi(&msgs, &reqs);
        assert_eq!(r.matches, 3);
    }

    #[test]
    fn duplicate_tuples_resolve_in_order() {
        // Ordering: three identical messages must match three identical
        // requests in arrival order.
        let msgs = vec![e(5, 5); 3];
        let reqs = vec![RecvRequest::exact(5, 5, 0); 3];
        let r = check_mpi(&msgs, &reqs);
        assert_eq!(
            r.assignment,
            vec![Some(0), Some(1), Some(2)],
            "in-order delivery between a pair is mandatory"
        );
    }

    #[test]
    fn crosses_warp_boundaries() {
        // 100 messages: spans 4 warps; every request matches exactly one.
        let msgs: Vec<Envelope> = (0..100).map(|i| e(i, i % 7)).collect();
        let reqs: Vec<RecvRequest> = (0..100)
            .rev()
            .map(|i| RecvRequest::exact(i, i % 7, 0))
            .collect();
        let r = check_mpi(&msgs, &reqs);
        assert_eq!(r.matches, 100);
    }

    #[test]
    fn full_1024_batch() {
        let msgs: Vec<Envelope> = (0..1024).map(|i| e(i, 0)).collect();
        let reqs: Vec<RecvRequest> = (0..1024).map(|i| RecvRequest::exact(i, 0, 0)).collect();
        let r = check_mpi(&msgs, &reqs);
        assert_eq!(r.matches, 1024);
    }

    #[test]
    fn multi_window_wildcard_dependencies() {
        // A wildcard request in a late window must still take the
        // earliest surviving message.
        let mut rng = StdRng::seed_from_u64(7);
        let msgs: Vec<Envelope> = (0..300)
            .map(|_| e(rng.gen_range(0..10), rng.gen_range(0..5)))
            .collect();
        let mut reqs: Vec<RecvRequest> = (0..280)
            .map(|_| RecvRequest::exact(rng.gen_range(0..10), rng.gen_range(0..5), 0))
            .collect();
        for j in [5usize, 100, 200, 270] {
            reqs[j] = RecvRequest {
                src: SrcSpec::Any,
                tag: TagSpec::Any,
                comm: 0,
            };
        }
        check_mpi(&msgs, &reqs);
    }

    #[test]
    fn iterative_long_queues_match_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 2500;
        let msgs: Vec<Envelope> = (0..n)
            .map(|_| e(rng.gen_range(0..40), rng.gen_range(0..8)))
            .collect();
        let reqs: Vec<RecvRequest> = (0..n)
            .map(|_| RecvRequest::exact(rng.gen_range(0..40), rng.gen_range(0..8), 0))
            .collect();
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let r = MatrixMatcher::default().match_iterative(&mut gpu, &msgs, &reqs);
        let golden = match_queues(&msgs, &reqs);
        let got: Vec<Option<usize>> = r.assignment.iter().map(|x| x.map(|v| v as usize)).collect();
        assert_eq!(
            got, golden,
            "iterative matching must preserve MPI semantics"
        );
        assert!(r.launches > 1, "2500 entries require multiple iterations");
    }

    #[test]
    fn iterative_long_queues_with_wildcards() {
        // Wildcards across the 1024-batch boundary: the iterative driver
        // must still deliver exact MPI semantics.
        let mut rng = StdRng::seed_from_u64(23);
        let n = 1800;
        let msgs: Vec<Envelope> = (0..n)
            .map(|_| e(rng.gen_range(0..20), rng.gen_range(0..6)))
            .collect();
        let mut reqs: Vec<RecvRequest> = msgs
            .iter()
            .map(|m| RecvRequest::exact(m.src, m.tag, 0))
            .collect();
        for j in (0..n).step_by(97) {
            reqs[j] = RecvRequest::any_source(msgs[j].tag, 0);
        }
        for j in (50..n).step_by(301) {
            reqs[j] = RecvRequest {
                src: SrcSpec::Any,
                tag: TagSpec::Any,
                comm: 0,
            };
        }
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let r = MatrixMatcher::default().match_iterative(&mut gpu, &msgs, &reqs);
        let got: Vec<Option<usize>> = r.assignment.iter().map(|x| x.map(|v| v as usize)).collect();
        assert_eq!(got, match_queues(&msgs, &reqs));
    }

    #[test]
    fn pipelining_ablation_same_result_slower_or_equal() {
        let msgs: Vec<Envelope> = (0..512).map(|i| e(i % 50, i % 6)).collect();
        let reqs: Vec<RecvRequest> = (0..512)
            .map(|i| RecvRequest::exact(i % 50, i % 6, 0))
            .collect();
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let piped = MatrixMatcher::default().match_batch(&mut gpu, &msgs, &reqs);
        let unpiped = MatrixMatcher {
            disable_pipelining: true,
            ..Default::default()
        }
        .match_batch(&mut gpu, &msgs, &reqs);
        assert_eq!(piped.assignment, unpiped.assignment);
        assert!(
            unpiped.cycles > piped.cycles,
            "pipelining must help at 512 entries: {} vs {}",
            unpiped.cycles,
            piped.cycles
        );
    }

    #[test]
    fn communicator_boundaries_are_respected_within_a_batch() {
        // One batch mixing three communicators: a request only matches
        // messages in its own communicator, even with wildcards.
        let mut rng = StdRng::seed_from_u64(31);
        let msgs: Vec<Envelope> = (0..300)
            .map(|_| {
                Envelope::new(
                    rng.gen_range(0..6),
                    rng.gen_range(0..4),
                    rng.gen_range(0..3),
                )
            })
            .collect();
        let mut reqs: Vec<RecvRequest> = msgs
            .iter()
            .map(|m| RecvRequest::exact(m.src, m.tag, m.comm))
            .collect();
        for j in (0..reqs.len()).step_by(41) {
            reqs[j] = RecvRequest::any_source(msgs[j].tag, msgs[j].comm);
        }
        check_mpi(&msgs, &reqs);
    }

    #[test]
    fn partial_match_workload() {
        // Only half the messages have a matching request.
        let msgs: Vec<Envelope> = (0..200).map(|i| e(i, 0)).collect();
        let reqs: Vec<RecvRequest> = (0..100).map(|i| RecvRequest::exact(i * 2, 0, 0)).collect();
        let r = check_mpi(&msgs, &reqs);
        assert_eq!(r.matches, 100);
    }
}
