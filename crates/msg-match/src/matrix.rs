//! The fully MPI-compliant GPU matching algorithm (paper Section V).
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
//! Queues longer than 1024 are processed in iterations of up to 1024
//! messages × 1024 requests with a compaction step in between
//! ([`MatrixMatcher::match_iterative`]).

use simt_sim::{
    lanes, CtaCtx, CtaKernel, Gpu, Lanes, LaunchConfig, LaunchReport, WarpCtx, WARP_SIZE,
};

use crate::envelope::{packed_matches, Envelope, RecvRequest};
use crate::gpu_common::{decode_assignment, GpuMatchReport, NO_MATCH};

/// Default scan window: requests per matrix tile. 64 columns double
/// buffered at 32 rows of `u32` is 16 KiB of shared memory — the footprint
/// that lets exactly two CTAs stay resident, as the paper reports from the
/// occupancy calculator.
pub(crate) const DEFAULT_WINDOW: usize = 64;

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

struct MatrixKernel {
    msgq: simt_sim::BufferId<u64>,
    recvq: simt_sim::BufferId<u64>,
    result: simt_sim::BufferId<u32>,
    n_msgs: usize,
    n_reqs: usize,
    window: usize,
    msg_warps: usize,
    reduce_warp: usize,
    costs: MatrixCosts,
    disable_pipelining: bool,
    dedup: bool,
}

impl MatrixKernel {
    fn scan(
        &self,
        w: &mut WarpCtx<'_>,
        win: usize,
        buf: simt_sim::SharedId<u32>,
        msg_words: &Lanes<u64>,
        msg_live: &Lanes<bool>,
    ) {
        let win_base = win * self.window;
        let win_len = self.window.min(self.n_reqs - win_base);
        // Requests are staged through registers: one coalesced load per 32
        // requests, then `shfl` broadcasts each to the whole warp. This is
        // the standard CUDA idiom for Algorithm 1's inner loop — a naive
        // per-iteration pointer chase would serialise on memory latency.
        let mut chunk_start = 0usize;
        // (request word, ballot) of the previous column, for probe dedup.
        let mut prev: Option<(u64, u32)> = None;
        let lane0 = w.lane_ids().map(|l| l == 0);
        while chunk_start < win_len {
            let chunk = WARP_SIZE.min(win_len - chunk_start);
            let lid = w.lane_ids();
            let live = lid.map(|l| (l as usize) < chunk);
            let base = (win_base + chunk_start) as u32;
            let idx = lid.zip(&live, |l, lv| if lv { base + l } else { base });
            w.charge_alu(2);
            let (req_lanes, tok) = w.ld_global(self.recvq, &idx);
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
                    _ => {
                        let preds =
                            msg_words.zip(msg_live, |m, live| live & packed_matches(m, req_word));
                        w.ballot_dep(load_dep.take(), &preds)
                    }
                };
                prev = Some((req_word, vote));
                // Column-major matrix: column i occupies 32 consecutive
                // words, so the reduce's column gather is conflict free.
                let i = chunk_start + j;
                let slot = Lanes::splat((i * WARP_SIZE + w.warp_id()) as u32);
                let vv = Lanes::splat(vote);
                w.if_lanes(&lane0, |w| {
                    w.st_shared(buf, &slot, &vv);
                });
            }
            chunk_start += chunk;
        }
    }

    fn reduce(
        &self,
        w: &mut WarpCtx<'_>,
        win: usize,
        buf: simt_sim::SharedId<u32>,
        masks: &mut Lanes<u32>,
    ) {
        let win_base = win * self.window;
        let win_len = self.window.min(self.n_reqs - win_base);
        for i in 0..win_len {
            w.charge_alu(1 + self.costs.reduce_overhead);
            // Lane l reads row l's vote for column i (contiguous words).
            let idx = w.lane_ids().map(|l| (i * WARP_SIZE) as u32 + l);
            let (col, tok) = w.ld_shared(buf, &idx);
            // The reduce completes each match record against the receive
            // descriptor in global memory (Algorithm 2's result handling);
            // this global access is the long pole of the per-column chain.
            let (_req_desc, gtok) = w.ld_global_bcast(self.recvq, (win_base + i) as u32);
            let _ = tok;
            let tok = gtok;
            let masked = col.zip(masks, |v, m| v & m);
            let bidders = w.ballot_dep(Some(tok), &masked.map(|x| x != 0));
            if bidders != 0 {
                // ffs picks the lowest row = earliest messages (rows map
                // to ascending message indices).
                w.charge_alu(2); // ffs(bidders), thread-id compare
                let winner = (lanes::ffs(bidders) - 1) as usize;
                let vote = masked.get(winner);
                let bit = lanes::ffs(vote) - 1;
                w.charge_alu(2); // ffs(vote & mask), mask erase
                masks.set(winner, masks.get(winner) & !(1u32 << bit));
                let msg_idx = (winner * WARP_SIZE) as u32 + bit;
                w.st_global_leader(self.result, (win_base + i) as u32, msg_idx);
            }
        }
    }
}

impl CtaKernel for MatrixKernel {
    fn name(&self) -> &'static str {
        "matrix_match"
    }

    fn execute(&mut self, cta: &mut CtaCtx<'_>) {
        // Double-buffered vote matrix, column-major, 32 rows × window.
        let buf_a = cta.alloc_shared::<u32>(WARP_SIZE * self.window);
        let buf_b = cta.alloc_shared::<u32>(WARP_SIZE * self.window);
        let bufs = [buf_a, buf_b];

        // Each scan warp loads its 32 messages once (kept in registers by
        // the CUDA original).
        let mut msg_words: Vec<Lanes<u64>> = vec![Lanes::default(); self.msg_warps];
        let mut msg_live: Vec<Lanes<bool>> = vec![Lanes::splat(false); self.msg_warps];
        let (n_msgs, msg_warps, reduce_warp) = (self.n_msgs, self.msg_warps, self.reduce_warp);
        let msgq = self.msgq;
        cta.for_each_warp(|w| {
            if w.warp_id() < msg_warps {
                let tid = w.thread_ids();
                let live = tid.map(|t| (t as usize) < n_msgs);
                let idx = tid.map(|t| if (t as usize) < n_msgs { t } else { 0 });
                w.charge_alu(2);
                let (words, _tok) = w.ld_global(msgq, &idx);
                msg_words[w.warp_id()] = words;
                msg_live[w.warp_id()] = live;
            }
        });

        // Row mask state lives in the reduce warp's registers.
        let mut masks = Lanes::splat(u32::MAX);

        let n_windows = self.n_reqs.div_ceil(self.window);
        if self.disable_pipelining {
            // Ablation: all scans, barrier, all reduces (single buffer
            // reuse pattern kept for the shared footprint).
            for win in 0..n_windows {
                let buf = bufs[win % 2];
                self.scan_segment(cta, win, buf, &msg_words, &msg_live);
                self.reduce_segment(cta, win, buf, &mut masks);
            }
        } else {
            // Pipelined: scan(win) and reduce(win-1) share a segment.
            for win in 0..=n_windows {
                let scan_buf = bufs[win % 2];
                let red_buf = bufs[(win + 1) % 2];
                let k = &*self;
                cta.for_each_warp(|w| {
                    if win < n_windows && w.warp_id() < msg_warps {
                        k.scan(
                            w,
                            win,
                            scan_buf,
                            &msg_words[w.warp_id()],
                            &msg_live[w.warp_id()],
                        );
                    }
                    if win > 0 && w.warp_id() == reduce_warp {
                        k.reduce(w, win - 1, red_buf, &mut masks);
                    }
                });
            }
        }
    }
}

impl MatrixKernel {
    fn scan_segment(
        &self,
        cta: &mut CtaCtx<'_>,
        win: usize,
        buf: simt_sim::SharedId<u32>,
        msg_words: &[Lanes<u64>],
        msg_live: &[Lanes<bool>],
    ) {
        let msg_warps = self.msg_warps;
        cta.for_each_warp(|w| {
            if w.warp_id() < msg_warps {
                self.scan(w, win, buf, &msg_words[w.warp_id()], &msg_live[w.warp_id()]);
            }
        });
    }

    fn reduce_segment(
        &self,
        cta: &mut CtaCtx<'_>,
        win: usize,
        buf: simt_sim::SharedId<u32>,
        masks: &mut Lanes<u32>,
    ) {
        let reduce_warp = self.reduce_warp;
        cta.warp(reduce_warp, |w| {
            self.reduce(w, win, buf, masks);
        });
    }
}

/// Single-warp fast path for tiny queues (the paper: "queues with less
/// than 64 elements are scanned by a single warp and no matrix is
/// generated"). One warp holds up to 32 messages in registers and
/// resolves each request with a direct ballot.
struct SmallKernel {
    msgq: simt_sim::BufferId<u64>,
    recvq: simt_sim::BufferId<u64>,
    result: simt_sim::BufferId<u32>,
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
            let live = tid.map(|t| (t as usize) < n_msgs);
            let idx = tid.map(|t| if (t as usize) < n_msgs { t } else { 0 });
            w.charge_alu(2);
            let (words, _tok) = w.ld_global(msgq, &idx);
            let mut mask: u32 = u32::MAX;
            let mut chunk_start = 0usize;
            // (request word, unmasked ballot) of the previous request:
            // probe dedup reuses the raw vote and skips the descriptor
            // reload; the per-request mask update below still runs, so
            // duplicates consume messages in posting order.
            let mut prev: Option<(u64, u32)> = None;
            while chunk_start < n_reqs {
                let chunk = WARP_SIZE.min(n_reqs - chunk_start);
                let lid = w.lane_ids();
                let rlive = lid.map(|l| (l as usize) < chunk);
                let base = chunk_start as u32;
                let ridx = lid.zip(&rlive, |l, lv| if lv { base + l } else { base });
                w.charge_alu(2);
                let (req_lanes, tok) = w.ld_global(recvq, &ridx);
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
                            let preds = words.zip(&live, |m, l| l & packed_matches(m, req_word));
                            w.ballot_dep(Some(gtok), &preds)
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
        let (assignment, launch) = self.launch_words(gpu, msg_words, req_words);
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

    fn launch_words(
        &self,
        gpu: &mut Gpu,
        msg_words: &[u64],
        req_words: &[u64],
    ) -> (Vec<Option<u32>>, LaunchReport) {
        assert!(
            !msg_words.is_empty() && !req_words.is_empty(),
            "guarded by callers"
        );
        let n_msgs = msg_words.len();
        let n_reqs = req_words.len();
        let msgq = gpu.mem.alloc_from(msg_words);
        let recvq = gpu.mem.alloc_from(req_words);
        let result = gpu.mem.alloc_from(&vec![NO_MATCH; n_reqs.max(1)]);

        let launch = if n_msgs <= WARP_SIZE {
            let mut k = SmallKernel {
                msgq,
                recvq,
                result,
                n_msgs,
                n_reqs,
                costs: self.costs,
                dedup: self.dedup_probes,
            };
            gpu.launch(&mut k, LaunchConfig::single_sm(1, WARP_SIZE as u32))
        } else {
            let msg_warps = n_msgs.div_ceil(WARP_SIZE);
            // The reduce warp is a dedicated warp when one is free; at 32
            // message warps it doubles up on warp 0 and pipelining dies.
            let (reduce_warp, warps) = if msg_warps < 32 {
                (msg_warps, msg_warps + 1)
            } else {
                (0, 32)
            };
            let mut k = MatrixKernel {
                msgq,
                recvq,
                result,
                n_msgs,
                n_reqs,
                window: self.window,
                msg_warps,
                reduce_warp,
                costs: self.costs,
                disable_pipelining: self.disable_pipelining,
                dedup: self.dedup_probes,
            };
            gpu.launch(
                &mut k,
                LaunchConfig::single_sm(1, (warps * WARP_SIZE) as u32),
            )
        };

        let raw = gpu.mem.read_vec(result);
        (decode_assignment(&raw), launch)
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
        let mut assignment: Vec<Option<u32>> = vec![None; req_words.len()];
        let mut live_msgs: Vec<u32> = (0..msg_words.len() as u32).collect();
        let mut live_reqs: Vec<u32> = (0..req_words.len() as u32).collect();
        let mut launches = Vec::new();
        let mut req_window_start = 0usize;
        let mut probe_dedups = 0u64;

        while !live_reqs.is_empty() && req_window_start < live_reqs.len() {
            let mb: Vec<u64> = live_msgs
                .iter()
                .take(MAX_BATCH)
                .map(|&i| msg_words[i as usize])
                .collect();
            let rb: Vec<u64> = live_reqs[req_window_start..]
                .iter()
                .take(MAX_BATCH)
                .map(|&i| req_words[i as usize])
                .collect();
            if mb.is_empty() {
                break;
            }
            let (batch_assign, launch) = self.launch_words(gpu, &mb, &rb);
            probe_dedups += self.count_dedups(&rb);
            launches.push(launch);

            let mut matched_msgs = Vec::new();
            let mut matched_reqs = Vec::new();
            for (bj, bm) in batch_assign.iter().enumerate() {
                if let Some(bi) = bm {
                    let gi = live_msgs[*bi as usize];
                    let gj = live_reqs[req_window_start + bj];
                    assignment[gj as usize] = Some(gi);
                    matched_msgs.push(*bi as usize);
                    matched_reqs.push(req_window_start + bj);
                }
            }
            if matched_msgs.is_empty() {
                // No request in this window can match the current message
                // head: advance the request window (mirrors tolerating
                // "bubbles" instead of compacting).
                req_window_start += rb.len();
                continue;
            }
            // Compaction (the prefix-scan + move step); cost is charged by
            // the dedicated compaction kernel in `crate::compaction` when
            // the caller opts in — here we track the queue bookkeeping.
            matched_msgs.sort_unstable();
            for i in matched_msgs.into_iter().rev() {
                live_msgs.remove(i);
            }
            matched_reqs.sort_unstable();
            for j in matched_reqs.into_iter().rev() {
                live_reqs.remove(j);
            }
            req_window_start = 0;
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
