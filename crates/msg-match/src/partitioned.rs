//! Rank partitioning: the *no source wildcard* relaxation (Section VI-A).
//!
//! Prohibiting `MPI_ANY_SOURCE` lets the rank space be statically
//! partitioned into multiple queues (here: `src % queues`, the scheme the
//! feasibility analysis assumes when it counts communication peers).
//! Each queue runs the matrix scan/reduce algorithm independently — and
//! crucially each queue gets its *own* reduce warp, so the sequential
//! phase parallelises across queues. Messages between a fixed pair of
//! ranks stay in one queue, so per-pair ordering — the guarantee MPI
//! actually gives — is preserved; only cross-source arrival order is
//! lost, which is unobservable without the source wildcard.
//!
//! Queue groups are packed into CTAs of at most 32 warps (queues never
//! span CTAs). Grids beyond the SM's two-CTA residency serialise, which
//! is the paper's explanation for the sub-linear region of Figure 5.

use simt_sim::{
    lanes, BufferId, CtaCtx, CtaKernel, Gpu, Lanes, LaunchConfig, LaunchReport, SharedId, WarpCtx,
    WARP_SIZE,
};

use crate::envelope::{packed_matches, Envelope, RecvRequest};
use crate::gpu_common::{decode_assignment, GpuMatchReport, NO_MATCH};
use crate::matrix::{MatrixCosts, DEFAULT_WINDOW, MAX_BATCH};

/// One queue's slice of the batch, as seen by the kernel.
#[derive(Debug, Clone, Copy)]
struct QueueSlice {
    /// Offset of this queue's messages in the packed message buffer.
    msg_off: u32,
    n_msgs: u32,
    /// Offset of this queue's requests in the packed request buffer.
    req_off: u32,
    n_reqs: u32,
    /// First warp (within the CTA) of this queue's group.
    warp_base: u32,
    /// Warps scanning messages.
    msg_warps: u32,
    /// Warp running the reduce (dedicated when the budget allows).
    reduce_warp: u32,
}

struct PartitionedKernel {
    msgq: BufferId<u64>,
    recvq: BufferId<u64>,
    /// Result per request (global request index → global message index).
    result: BufferId<u32>,
    /// Queues grouped by CTA: `per_cta[c]` lists the slices CTA `c` owns.
    per_cta: Vec<Vec<QueueSlice>>,
    window: usize,
    costs: MatrixCosts,
}

impl PartitionedKernel {
    #[allow(clippy::too_many_arguments)]
    fn scan(
        &self,
        w: &mut WarpCtx<'_>,
        q: &QueueSlice,
        win: usize,
        buf: SharedId<u32>,
        rows: usize,
        msg_words: &Lanes<u64>,
        msg_live: &Lanes<bool>,
    ) {
        let win_base = win * self.window;
        let win_len = self.window.min(q.n_reqs as usize - win_base);
        let row = w.warp_id() - q.warp_base as usize;
        // Register-staged requests: one coalesced load per 32, then shfl
        // broadcasts (see `matrix::MatrixKernel::scan`).
        let mut chunk_start = 0usize;
        let lane0 = w.lane_ids().map(|l| l == 0);
        while chunk_start < win_len {
            let chunk = WARP_SIZE.min(win_len - chunk_start);
            let lid = w.lane_ids();
            let rlive = lid.map(|l| (l as usize) < chunk);
            let base = q.req_off + (win_base + chunk_start) as u32;
            let ridx = lid.zip(&rlive, |l, lv| if lv { base + l } else { base });
            w.charge_alu(2);
            let (req_lanes, tok) = w.ld_global(self.recvq, &ridx);
            let mut load_dep = Some(tok);
            for j in 0..chunk {
                w.charge_alu(1 + self.costs.scan_overhead);
                let req_word = w.shfl(&req_lanes, j);
                let preds = msg_words.zip(msg_live, |m, live| live & packed_matches(m, req_word));
                let vote = w.ballot_dep(load_dep.take(), &preds);
                let i = chunk_start + j;
                let slot = Lanes::splat((i * rows + row) as u32);
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
        q: &QueueSlice,
        win: usize,
        buf: SharedId<u32>,
        rows: usize,
        masks: &mut Lanes<u32>,
    ) {
        let win_base = win * self.window;
        let win_len = self.window.min(q.n_reqs as usize - win_base);
        for i in 0..win_len {
            w.charge_alu(1 + self.costs.reduce_overhead);
            let idx = w.lane_ids().map(|l| {
                let l = (l as usize).min(rows.saturating_sub(1));
                (i * rows + l) as u32
            });
            let (col, tok) = w.ld_shared(buf, &idx);
            // The reduce completes each match record against the receive
            // descriptor in global memory (Algorithm 2's result handling);
            // this global access is the long pole of the per-column chain.
            let (_req_desc, gtok) =
                w.ld_global_bcast(self.recvq, q.req_off + (win_base + i) as u32);
            let _ = tok;
            let tok = gtok;
            // Lanes beyond the row count replicate row data; mask them off.
            let masked = Lanes::from_fn(|l| {
                if l < rows {
                    col.get(l) & masks.get(l)
                } else {
                    0
                }
            });
            let bidders = w.ballot_dep(Some(tok), &masked.map(|x| x != 0));
            if bidders != 0 {
                w.charge_alu(2);
                let winner = (lanes::ffs(bidders) - 1) as usize;
                let bit = lanes::ffs(masked.get(winner)) - 1;
                w.charge_alu(2);
                masks.set(winner, masks.get(winner) & !(1u32 << bit));
                let msg_idx = q.msg_off + (winner * WARP_SIZE) as u32 + bit;
                w.st_global_leader(self.result, q.req_off + (win_base + i) as u32, msg_idx);
            }
        }
    }
}

impl CtaKernel for PartitionedKernel {
    fn name(&self) -> &'static str {
        "partitioned_match"
    }

    fn execute(&mut self, cta: &mut CtaCtx<'_>) {
        let queues = self.per_cta[cta.cta_id()].clone();
        if queues.is_empty() {
            return;
        }
        // Per-queue double-buffered matrices (rows = that queue's warps).
        let bufs: Vec<[SharedId<u32>; 2]> = queues
            .iter()
            .map(|q| {
                let rows = (q.msg_warps as usize).max(1);
                [
                    cta.alloc_shared::<u32>(rows * self.window),
                    cta.alloc_shared::<u32>(rows * self.window),
                ]
            })
            .collect();

        // Warp → queue map for this CTA.
        let mut warp_queue: Vec<Option<usize>> = vec![None; cta.warp_count()];
        for (qi, q) in queues.iter().enumerate() {
            let group = (q.msg_warps.max(1)
                + if q.reduce_warp >= q.warp_base + q.msg_warps {
                    1
                } else {
                    0
                }) as usize;
            for wo in 0..group {
                let wid = q.warp_base as usize + wo;
                if wid < warp_queue.len() {
                    warp_queue[wid] = Some(qi);
                }
            }
        }

        // Load messages into "registers" per scan warp.
        let n_warps = cta.warp_count();
        let mut msg_words: Vec<Lanes<u64>> = vec![Lanes::default(); n_warps];
        let mut msg_live: Vec<Lanes<bool>> = vec![Lanes::splat(false); n_warps];
        let msgq = self.msgq;
        {
            let queues = &queues;
            let warp_queue = &warp_queue;
            cta.for_each_warp(|w| {
                let Some(qi) = warp_queue[w.warp_id()] else {
                    return;
                };
                let q = &queues[qi];
                let row = w.warp_id() as u32 - q.warp_base;
                if row >= q.msg_warps {
                    return; // dedicated reduce warp
                }
                let base = row * WARP_SIZE as u32;
                let lid = w.lane_ids();
                let live = lid.map(|l| base + l < q.n_msgs);
                let idx = lid.zip(&live, |l, lv| if lv { q.msg_off + base + l } else { 0 });
                w.charge_alu(2);
                let (words, _tok) = w.ld_global(msgq, &idx);
                msg_words[w.warp_id()] = words;
                msg_live[w.warp_id()] = live;
            });
        }

        // Per-queue reduce masks.
        let mut masks: Vec<Lanes<u32>> = vec![Lanes::splat(u32::MAX); queues.len()];
        let max_windows = queues
            .iter()
            .map(|q| (q.n_reqs as usize).div_ceil(self.window))
            .max()
            .unwrap_or(0);

        for win in 0..=max_windows {
            let k = &*self;
            let queues = &queues;
            let warp_queue = &warp_queue;
            let bufs = &bufs;
            let masks = &mut masks;
            let msg_words = &msg_words;
            let msg_live = &msg_live;
            cta.for_each_warp(|w| {
                let Some(qi) = warp_queue[w.warp_id()] else {
                    return;
                };
                let q = &queues[qi];
                let q_windows = (q.n_reqs as usize).div_ceil(k.window);
                let rows = (q.msg_warps as usize).max(1);
                let is_scan_warp = (w.warp_id() as u32) >= q.warp_base
                    && (w.warp_id() as u32) < q.warp_base + q.msg_warps;
                if is_scan_warp && win < q_windows {
                    k.scan(
                        w,
                        q,
                        win,
                        bufs[qi][win % 2],
                        rows,
                        &msg_words[w.warp_id()],
                        &msg_live[w.warp_id()],
                    );
                }
                if w.warp_id() as u32 == q.reduce_warp && win > 0 && win - 1 < q_windows {
                    k.reduce(w, q, win - 1, bufs[qi][(win + 1) % 2], rows, &mut masks[qi]);
                }
            });
        }
    }
}

/// Predict the CTA footprint of one partitioned launch: how many CTAs
/// the first-fit packing needs for queues of the given lengths (in
/// messages, each capped at one batch). Figure 5 annotates its series
/// with exactly this number.
pub fn cta_plan(queue_lens: &[usize]) -> u32 {
    let mut cta_warps: Vec<u32> = Vec::new();
    for &len in queue_lens.iter().filter(|&&l| l > 0) {
        let msg_warps = (len.min(MAX_BATCH) as u32).div_ceil(WARP_SIZE as u32);
        let group = if msg_warps < 32 { msg_warps + 1 } else { 32 };
        match (0..cta_warps.len()).find(|&c| cta_warps[c] + group <= 32) {
            Some(c) => cta_warps[c] += group,
            None => cta_warps.push(group),
        }
    }
    cta_warps.len().max(1) as u32
}

/// The rank-partitioned matcher.
#[derive(Debug, Clone)]
pub struct PartitionedMatcher {
    /// Number of queues the rank space is split into.
    pub(crate) queues: usize,
    /// Scan window per queue.
    pub(crate) window: usize,
    /// Overhead calibration (shared with the matrix matcher).
    pub(crate) costs: MatrixCosts,
}

impl PartitionedMatcher {
    /// Partitioned matcher with `queues` queues.
    pub fn new(queues: usize) -> Self {
        assert!(queues >= 1);
        PartitionedMatcher {
            queues,
            window: DEFAULT_WINDOW,
            costs: MatrixCosts::default(),
        }
    }

    /// Match a batch. Requests must not use the source wildcard — that is
    /// the relaxation this matcher trades for queue parallelism.
    ///
    /// # Errors
    /// Returns an error if any request uses `MPI_ANY_SOURCE`.
    pub fn match_batch(
        &self,
        gpu: &mut Gpu,
        msgs: &[Envelope],
        reqs: &[RecvRequest],
    ) -> Result<GpuMatchReport, String> {
        if let Some(j) = reqs
            .iter()
            .position(|r| matches!(r.src, crate::envelope::SrcSpec::Any))
        {
            return Err(format!(
                "rank partitioning requires the no-source-wildcard relaxation, \
                 but request {j} uses MPI_ANY_SOURCE"
            ));
        }
        if msgs.is_empty() || reqs.is_empty() {
            return Ok(GpuMatchReport::from_launches(vec![None; reqs.len()], &[]));
        }

        // Partition by src % queues, preserving order within each queue.
        let k = self.queues;
        let mut q_msgs: Vec<Vec<u32>> = vec![Vec::new(); k];
        for (i, m) in msgs.iter().enumerate() {
            q_msgs[(m.src as usize) % k].push(i as u32);
        }
        let mut q_reqs: Vec<Vec<u32>> = vec![Vec::new(); k];
        for (j, r) in reqs.iter().enumerate() {
            let crate::envelope::SrcSpec::Rank(s) = r.src else {
                unreachable!("wildcards rejected above")
            };
            q_reqs[(s as usize) % k].push(j as u32);
        }

        // Rounds: each round takes ≤ MAX_BATCH messages and requests per
        // queue and launches one grid over all queues with pending work.
        let mut assignment: Vec<Option<u32>> = vec![None; reqs.len()];
        let mut launches: Vec<LaunchReport> = Vec::new();
        // Per queue: (live message ids, live request ids, request window
        // start for stall recovery).
        let mut state: Vec<(Vec<u32>, Vec<u32>, usize)> = q_msgs
            .into_iter()
            .zip(q_reqs)
            .map(|(m, r)| (m, r, 0usize))
            .collect();

        loop {
            // Build this round's slices.
            let mut msg_words: Vec<u64> = Vec::new();
            let mut req_words: Vec<u64> = Vec::new();
            let mut round_msgs: Vec<Vec<u32>> = Vec::new(); // queue → global msg ids
            let mut round_reqs: Vec<Vec<u32>> = Vec::new();
            let mut slices: Vec<QueueSlice> = Vec::new();
            for (mids, rids, win_start) in state.iter() {
                if mids.is_empty() || *win_start >= rids.len() {
                    round_msgs.push(Vec::new());
                    round_reqs.push(Vec::new());
                    continue;
                }
                let mb: Vec<u32> = mids.iter().take(MAX_BATCH).copied().collect();
                let rb: Vec<u32> = rids[*win_start..].iter().take(MAX_BATCH).copied().collect();
                let msg_off = msg_words.len() as u32;
                let req_off = req_words.len() as u32;
                msg_words.extend(mb.iter().map(|&i| msgs[i as usize].pack()));
                req_words.extend(rb.iter().map(|&j| reqs[j as usize].pack()));
                slices.push(QueueSlice {
                    msg_off,
                    n_msgs: mb.len() as u32,
                    req_off,
                    n_reqs: rb.len() as u32,
                    warp_base: 0, // assigned during packing
                    msg_warps: (mb.len() as u32).div_ceil(WARP_SIZE as u32),
                    reduce_warp: 0,
                });
                round_msgs.push(mb);
                round_reqs.push(rb);
            }
            if slices.is_empty() {
                break;
            }

            // Pack queue groups into CTAs (first-fit, ≤ 32 warps each).
            let mut per_cta: Vec<Vec<QueueSlice>> = Vec::new();
            let mut cta_warps: Vec<u32> = Vec::new();
            for mut s in slices {
                // Dedicated reduce warp when the group is not already full.
                let group = if s.msg_warps < 32 {
                    s.msg_warps + 1
                } else {
                    32
                };
                let target = (0..per_cta.len())
                    .find(|&c| cta_warps[c] + group <= 32)
                    .unwrap_or_else(|| {
                        per_cta.push(Vec::new());
                        cta_warps.push(0);
                        per_cta.len() - 1
                    });
                s.warp_base = cta_warps[target];
                s.reduce_warp = if s.msg_warps < 32 {
                    s.warp_base + s.msg_warps
                } else {
                    s.warp_base
                };
                cta_warps[target] += group;
                per_cta[target].push(s);
            }
            let max_warps = cta_warps.iter().copied().max().unwrap_or(1);
            let ctas = per_cta.len() as u32;

            let msgq = gpu.mem.alloc_from(&msg_words);
            let recvq = gpu.mem.alloc_from(&req_words);
            let result = gpu.mem.alloc_from(&vec![NO_MATCH; req_words.len()]);
            let mut kernel = PartitionedKernel {
                msgq,
                recvq,
                result,
                per_cta,
                window: self.window,
                costs: self.costs,
            };
            launches.push(gpu.launch(
                &mut kernel,
                LaunchConfig::single_sm(ctas, max_warps * WARP_SIZE as u32),
            ));

            // Apply results and compact per-queue state.
            let raw = gpu.mem.read_vec(result);
            let assigned = decode_assignment(&raw);
            let mut progressed = false;
            let mut cursor = 0usize; // walks the packed request ranges
            let mut msg_cursor = 0usize;
            for (qi, (mids, rids, win_start)) in state.iter_mut().enumerate() {
                let mb = &round_msgs[qi];
                let rb = &round_reqs[qi];
                if mb.is_empty() {
                    continue;
                }
                let mut matched_local_msgs: Vec<u32> = Vec::new();
                let mut matched_reqs: Vec<u32> = Vec::new();
                for (bj, gj) in rb.iter().enumerate() {
                    if let Some(packed_mi) = assigned[cursor + bj] {
                        let local_mi = packed_mi - msg_cursor as u32;
                        let gi = mb[local_mi as usize];
                        assignment[*gj as usize] = Some(gi);
                        matched_local_msgs.push(local_mi);
                        matched_reqs.push(*gj);
                        progressed = true;
                    }
                }
                cursor += rb.len();
                msg_cursor += mb.len();
                if matched_reqs.is_empty() {
                    // Advance this queue's request window past the
                    // unmatchable head.
                    *win_start += rb.len();
                } else {
                    let drop_msgs: std::collections::HashSet<u32> =
                        matched_local_msgs.iter().map(|&l| mb[l as usize]).collect();
                    mids.retain(|i| !drop_msgs.contains(i));
                    let drop_reqs: std::collections::HashSet<u32> =
                        matched_reqs.into_iter().collect();
                    rids.retain(|j| !drop_reqs.contains(j));
                    *win_start = 0;
                }
            }
            if !progressed {
                // Every queue advanced its window; loop continues until all
                // windows pass the end, then `slices` comes up empty.
                continue;
            }
        }
        Ok(GpuMatchReport::from_launches(assignment, &launches))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::verify_mpi_matching;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use simt_sim::GpuGeneration;

    fn e(src: u32, tag: u32) -> Envelope {
        Envelope::new(src, tag, 0)
    }

    fn check(queues: usize, msgs: &[Envelope], reqs: &[RecvRequest]) -> GpuMatchReport {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let r = PartitionedMatcher::new(queues)
            .match_batch(&mut gpu, msgs, reqs)
            .expect("no wildcards in workload");
        let a: Vec<Option<usize>> = r.assignment.iter().map(|x| x.map(|v| v as usize)).collect();
        // Without the source wildcard, partitioned matching must still
        // produce the exact MPI outcome (per-pair ordering observable).
        verify_mpi_matching(msgs, reqs, &a).expect("partitioned result must equal MPI semantics");
        r
    }

    #[test]
    fn rejects_source_wildcard() {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let err = PartitionedMatcher::new(4)
            .match_batch(&mut gpu, &[e(0, 0)], &[RecvRequest::any_source(0, 0)])
            .unwrap_err();
        assert!(err.contains("MPI_ANY_SOURCE"));
    }

    #[test]
    fn tag_wildcard_is_still_allowed() {
        // Only the *source* wildcard blocks partitioning.
        let msgs = vec![e(3, 9)];
        let reqs = vec![RecvRequest::any_tag(3, 0)];
        let r = check(4, &msgs, &reqs);
        assert_eq!(r.matches, 1);
    }

    #[test]
    fn single_queue_equals_matrix_semantics() {
        let msgs: Vec<Envelope> = (0..100).map(|i| e(i % 10, i % 4)).collect();
        let reqs: Vec<RecvRequest> = (0..100)
            .map(|i| RecvRequest::exact(i % 10, i % 4, 0))
            .collect();
        let r = check(1, &msgs, &reqs);
        assert_eq!(r.matches, 100);
    }

    #[test]
    fn multi_queue_full_match() {
        let mut rng = StdRng::seed_from_u64(21);
        let msgs: Vec<Envelope> = (0..512)
            .map(|_| e(rng.gen_range(0..16), rng.gen_range(0..6)))
            .collect();
        let reqs: Vec<RecvRequest> = msgs
            .iter()
            .map(|m| RecvRequest::exact(m.src, m.tag, 0))
            .collect();
        for q in [2usize, 4, 8, 16] {
            let r = check(q, &msgs, &reqs);
            assert_eq!(r.matches, 512, "{q} queues");
        }
    }

    #[test]
    fn imbalanced_sources_still_correct() {
        // Everything from one source: all work lands in one queue.
        let msgs: Vec<Envelope> = (0..200).map(|i| e(5, i % 50)).collect();
        let reqs: Vec<RecvRequest> = (0..200)
            .rev()
            .map(|i| RecvRequest::exact(5, i % 50, 0))
            .collect();
        let r = check(8, &msgs, &reqs);
        assert_eq!(r.matches, 200);
    }

    #[test]
    fn partial_matches_and_unmatched_residue() {
        let msgs: Vec<Envelope> = (0..300).map(|i| e(i % 12, 0)).collect();
        let reqs: Vec<RecvRequest> = (0..150).map(|i| RecvRequest::exact(i % 6, 0, 0)).collect();
        check(4, &msgs, &reqs);
    }

    #[test]
    fn more_queues_is_faster_at_scale() {
        // The headline claim: queue parallelism raises the matching rate.
        let mut rng = StdRng::seed_from_u64(33);
        let n = 1024;
        let msgs: Vec<Envelope> = (0..n)
            .map(|_| e(rng.gen_range(0..64), rng.gen_range(0..100)))
            .collect();
        let reqs: Vec<RecvRequest> = msgs
            .iter()
            .map(|m| RecvRequest::exact(m.src, m.tag, 0))
            .collect();
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let r1 = PartitionedMatcher::new(1)
            .match_batch(&mut gpu, &msgs, &reqs)
            .unwrap();
        let r8 = PartitionedMatcher::new(8)
            .match_batch(&mut gpu, &msgs, &reqs)
            .unwrap();
        assert_eq!(r1.matches, n as u64);
        assert_eq!(r8.matches, n as u64);
        assert!(
            r8.matches_per_sec > r1.matches_per_sec * 3.0,
            "8 queues should be ≫ 1 queue: {} vs {}",
            r8.matches_per_sec,
            r1.matches_per_sec
        );
    }

    #[test]
    fn long_queues_iterate() {
        let mut rng = StdRng::seed_from_u64(44);
        let n = 3000;
        let msgs: Vec<Envelope> = (0..n)
            .map(|_| e(rng.gen_range(0..8), rng.gen_range(0..4)))
            .collect();
        let reqs: Vec<RecvRequest> = msgs
            .iter()
            .map(|m| RecvRequest::exact(m.src, m.tag, 0))
            .collect();
        let r = check(2, &msgs, &reqs);
        assert_eq!(r.matches, n as u64);
        assert!(r.launches > 1);
    }
}
