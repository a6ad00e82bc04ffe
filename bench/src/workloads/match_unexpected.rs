//! `match-unexpected`: the matcher layer used the other way round. 32
//! senders deliver 2048 messages to one full-MPI (matrix) endpoint before
//! any receive exists, then 2048 receives are posted in shuffled order —
//! a quarter can match, a tenth carry `MPI_ANY_SOURCE` — with a progress
//! call every 256 posts. UMQ-heavy, twice `MAX_BATCH` deep, mostly
//! fruitless traversals: the pre-filter, compaction and probe dedup do
//! the work instead of the scan/reduce.
//!
//! The native `ListMatcher` / `HashedListMatcher` run the identical
//! stream as oracle and are timed as layers (the paper's §II-C CPU
//! baseline; zero simulator).

use std::time::Instant;

use bytes::Bytes;
use gpu_msg::{Completion, Domain, EndpointStats};
use msg_match::compaction::compact_queue;
use msg_match::prelude::*;
use msg_match::Workload as Batch;
use simt_sim::Gpu;

use crate::layers::{self, GENERATION};
use crate::metrics::Values;
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::workloads::{LayerCtx, Rep, Workload};

/// Sending ranks; the receiver is rank `SENDERS`.
const SENDERS: u32 = 32;
/// Receives posted between progress calls.
const POSTS_PER_PROGRESS: usize = 256;
/// Bucket count of the hashed-list baseline.
const HASHED_LIST_BUCKETS: usize = 256;

/// The stream: 2048 messages, 2048 receives, 25 % matching, 10 % source
/// wildcards.
fn spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        len: 2048,
        peers: SENDERS,
        match_pct: 25,
        src_wildcard_pm: 100,
        seed,
        ..Default::default()
    }
}

/// Canonical text of every constant (hashed into the context block).
pub fn constants() -> String {
    format!(
        "{:?} posts_per_progress={POSTS_PER_PROGRESS} hashed_list_buckets={HASHED_LIST_BUCKETS}",
        spec(0)
    )
}

struct RunOutput {
    wall_s: f64,
    completions: Vec<Completion>,
    stats: EndpointStats,
    progress_calls: u64,
}

/// The bench-side replica of the endpoint's matching sequence: the same
/// screens and the same iterative word launches on a device of its own,
/// timed per layer.
#[derive(Debug, Clone, Copy, Default)]
struct Replica {
    engine_s: f64,
    screen_s: f64,
    instructions: u64,
    cycles: u64,
    launches: u64,
    probe_dedups: u64,
    probes: u64,
    progress_calls: u64,
}

/// `match-unexpected`, set up for one seed.
pub struct MatchUnexpected {
    stream: Batch,
    payload: Bytes,
    /// Matches the reference model finds on the stream.
    oracle_matches: usize,
    /// Native matchers disagreeing with the reference model (0 or more).
    baseline_mismatches: u64,
    /// Simulated instructions per simulated cycle of the replica.
    instr_per_cycle: f64,
    last: Option<RunOutput>,
}

impl MatchUnexpected {
    /// Everything `setup_s` times: the seeded stream, the reference and
    /// native-matcher oracles, the replica that supplies the
    /// instruction-per-cycle ratio, and one warm-up repetition.
    pub fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let stream = spec(seed).generate();
        let oracle_matches = match_queues(&stream.msgs, &stream.reqs)
            .iter()
            .filter(|a| a.is_some())
            .count();
        let list = tr.span("msg_match.list.replay", |_| {
            run_list(&stream, &mut ListMatcher::new())
        });
        let hashed = run_hashed_list(&stream);
        let baseline_mismatches =
            u64::from(list != oracle_matches) + u64::from(hashed != oracle_matches);
        let replica = replicate(&stream, tr);
        let w = MatchUnexpected {
            stream,
            payload: Bytes::from_static(b"8 bytes."),
            oracle_matches,
            baseline_mismatches,
            instr_per_cycle: replica.instructions as f64 / replica.cycles.max(1) as f64,
            last: None,
        };
        w.run(&mut Tracer::new(false));
        w
    }

    fn run(&self, tr: &mut Tracer) -> RunOutput {
        let receiver = SENDERS;
        let t = Instant::now();
        let d = tr.span("gpu_msg.domain.new", |_| {
            Domain::full_mpi(SENDERS + 1, GENERATION)
        });
        for m in &self.stream.msgs {
            tr.span("gpu_msg.domain.send", |_| {
                d.send(m.src, receiver, m.tag, m.comm, self.payload.clone())
            });
        }
        let mut progress_calls = 0u64;
        for (i, r) in self.stream.reqs.iter().enumerate() {
            tr.span("gpu_msg.domain.post_recv", |_| d.post_recv(receiver, *r))
                .expect("full MPI semantics accept every wildcard");
            if (i + 1) % POSTS_PER_PROGRESS == 0 {
                tr.span("gpu_msg.domain.progress", |_| d.progress(receiver))
                    .expect("the direct wire cannot fail");
                progress_calls += 1;
            }
        }
        let completions = tr.span("gpu_msg.domain.take_completions", |_| {
            d.take_completions(receiver)
        });
        RunOutput {
            wall_s: t.elapsed().as_secs_f64(),
            completions,
            stats: d.stats(receiver),
            progress_calls,
        }
    }

    fn verify(&self, run: &RunOutput) -> u64 {
        // Handles are dense in post order, so a handle indexes `reqs`.
        let illegal = run
            .completions
            .iter()
            .filter(|c| {
                self.stream
                    .reqs
                    .get(c.handle.0 as usize)
                    .is_none_or(|r| !r.matches(&c.message.envelope))
            })
            .count();
        (run.completions.len().abs_diff(self.oracle_matches) + illegal) as u64
            + self.baseline_mismatches
    }
}

/// Arrive every message at a native matcher, then post every receive;
/// count the matches.
fn run_native<M>(
    stream: &Batch,
    matcher: &mut M,
    arrive: fn(&mut M, Envelope) -> Option<MatchPair>,
    post: fn(&mut M, RecvRequest) -> Option<MatchPair>,
) -> usize {
    let arrived = stream
        .msgs
        .iter()
        .filter(|m| arrive(matcher, **m).is_some())
        .count();
    let posted = stream
        .reqs
        .iter()
        .filter(|r| post(matcher, **r).is_some())
        .count();
    arrived + posted
}

fn run_list(stream: &Batch, list: &mut ListMatcher) -> usize {
    run_native(stream, list, ListMatcher::arrive, ListMatcher::post)
}

fn run_hashed_list(stream: &Batch) -> usize {
    run_native(
        stream,
        &mut HashedListMatcher::new(HASHED_LIST_BUCKETS),
        HashedListMatcher::arrive,
        HashedListMatcher::post,
    )
}

/// Re-issue what the endpoint does at each progress call — screen the
/// whole UMQ against the posted receives, launch the iterative matrix
/// matcher on the survivors' packed words, retire the matched entries —
/// through the matcher layer's public calls only.
fn replicate(stream: &Batch, tr: &mut Tracer) -> Replica {
    let mut gpu = Gpu::new(GENERATION);
    let matcher = MatrixMatcher::default();
    let mut umq: Vec<Envelope> = stream.msgs.clone();
    let mut prq: Vec<RecvRequest> = Vec::new();
    let mut out = Replica::default();
    for (i, r) in stream.reqs.iter().enumerate() {
        prq.push(*r);
        if (i + 1) % POSTS_PER_PROGRESS != 0 {
            continue;
        }
        out.progress_calls += 1;
        let t = Instant::now();
        let screen = tr.span("msg_match.prefilter.screen", |_| screen_batch(&umq, &prq));
        out.screen_s += t.elapsed().as_secs_f64();
        out.probes += (umq.len() + prq.len()) as u64;
        if screen.skip_launch() {
            continue;
        }
        let msg_words: Vec<u64> = screen
            .msg_keep
            .iter()
            .map(|&i| umq[i as usize].pack())
            .collect();
        let req_words: Vec<u64> = screen
            .req_keep
            .iter()
            .map(|&j| prq[j as usize].pack())
            .collect();
        let t = Instant::now();
        let report = tr.span("msg_match.engine.replay", |_| {
            matcher.match_iterative_words(&mut gpu, &msg_words, &req_words)
        });
        out.engine_s += t.elapsed().as_secs_f64();
        out.instructions += report.instructions;
        out.cycles += report.cycles;
        out.launches += u64::from(report.launches);
        out.probe_dedups += report.probe_dedups;

        let assignment = expand_assignment(prq.len(), &screen, &report.assignment);
        let mut msg_gone = vec![false; umq.len()];
        for a in assignment.iter().flatten() {
            msg_gone[*a as usize] = true;
        }
        let mut k = 0;
        umq.retain(|_| {
            k += 1;
            !msg_gone[k - 1]
        });
        let mut k = 0;
        prq.retain(|_| {
            k += 1;
            assignment[k - 1].is_none()
        });
    }
    out
}

impl Workload for MatchUnexpected {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let run = self.run(tr);
        let failed = tr.span("oracle.verify", |_| self.verify(&run));
        let s = run.stats;
        let instr = s.kernel_cycles as f64 * self.instr_per_cycle;
        let msgs = self.stream.msgs.len() as u64;
        let rep = Rep {
            wall_s: run.wall_s,
            msgs,
            attempted: msgs,
            failed,
            sim_instr: instr,
            sim: vec![
                ("sim_msgs_per_s", msgs as f64 / s.kernel_seconds),
                ("simt_sim.exec.warp_instr_per_msg", instr / msgs as f64),
                ("simt_sim.exec.launches", s.launches as f64),
                (
                    "simt_sim.exec.instr_per_launch",
                    instr / s.launches.max(1) as f64,
                ),
                ("gpu_msg.domain.progress_rounds", run.progress_calls as f64),
                ("gpu_msg.domain.umq_high_water", s.umq_high_water as f64),
                ("gpu_msg.domain.prq_high_water", s.prq_high_water as f64),
                (
                    "msg_match.prefilter.rejected_share",
                    s.prefilter_rejections as f64 / s.prefilter_probes.max(1) as f64,
                ),
                (
                    "msg_match.prefilter.skipped_launch_share",
                    s.prefilter_skipped_launches as f64 / run.progress_calls.max(1) as f64,
                ),
                (
                    "msg_match.engine.probe_dedup_share",
                    s.probe_dedups as f64 / s.prefilter_probes.max(1) as f64,
                ),
            ],
        };
        self.last = Some(run);
        rep
    }

    fn layers(&mut self, tr: &mut Tracer, ctx: &LayerCtx) -> Values {
        let last = self.last.take().expect("layers() follows a repetition");
        let msgs = self.stream.msgs.len() as f64;
        let mut v = Values::default();

        // The replica's simulated outputs repeat exactly; its wall split
        // (engine vs screen) is what gets timed here.
        let runs = layers::repeat(ctx.quick, || replicate(&self.stream, tr));
        let replica = runs[0];
        let quiet =
            |f: fn(&Replica) -> f64| Summary::of(&runs.iter().map(f).collect::<Vec<_>>()).quiet();
        let (engine_s, screen_s) = (quiet(|r| r.engine_s), quiet(|r| r.screen_s));
        v.set(
            "simt_sim.exec.host_ns_per_warp_instr",
            engine_s * 1e9 / replica.instructions.max(1) as f64,
        );
        v.set("msg_match.engine.host_ns_per_msg", engine_s * 1e9 / msgs);
        v.set(
            "msg_match.engine.sim_cycles_per_msg",
            replica.cycles as f64 / msgs,
        );
        v.set(
            "msg_match.engine.launches_per_batch",
            replica.launches as f64 / replica.progress_calls.max(1) as f64,
        );
        v.set(
            "msg_match.prefilter.host_ns_per_probe",
            screen_s * 1e9 / replica.probes.max(1) as f64,
        );

        // Device-side compaction of the UMQ at its high-water mark,
        // keeping what the run left unexpected.
        let words: Vec<u64> = self.stream.msgs.iter().map(Envelope::pack).collect();
        let unmatched = words.len() - last.completions.len();
        let keep: Vec<u32> = (0..words.len()).map(|i| u32::from(i < unmatched)).collect();
        let mut gpu = Gpu::new(GENERATION);
        let (compact_s, (kept, launch)) =
            layers::time_quiet(tr, "msg_match.compaction.replay", ctx.quick, || {
                gpu.reset_memory();
                compact_queue(&mut gpu, &words, &keep)
            });
        assert_eq!(kept.len(), unmatched, "compaction must keep what was asked");
        v.set(
            "msg_match.compaction.host_ns_per_entry",
            compact_s * 1e9 / words.len() as f64,
        );
        v.set(
            "msg_match.compaction.sim_cycles_share",
            launch.cycles as f64 / (launch.cycles + last.stats.kernel_cycles) as f64,
        );

        // The CPU baselines over the identical stream.
        let (list_s, _) = layers::time_quiet(tr, "msg_match.list.replay", ctx.quick, || {
            run_list(&self.stream, &mut ListMatcher::new())
        });
        v.set("msg_match.list.host_ns_per_msg", list_s * 1e9 / msgs);
        let mut walked = ListMatcher::with_stats(true);
        run_list(&self.stream, &mut walked);
        let attempts = walked.umq_attempts.iter().chain(&walked.prq_attempts);
        let (walks, steps) =
            attempts.fold((0u64, 0u64), |(n, s), a| (n + 1, s + a.search_len as u64));
        v.set(
            "msg_match.list.walk_len_mean",
            steps as f64 / walks.max(1) as f64,
        );
        let (hashed_s, _) = layers::time_quiet(tr, "msg_match.list.replay", ctx.quick, || {
            run_hashed_list(&self.stream)
        });
        v.set(
            "msg_match.hashed_list.host_ns_per_msg",
            hashed_s * 1e9 / msgs,
        );

        // The direct wire costs nothing, so what the engine and the
        // screen leave of the repetition is the domain's own work.
        v.set(
            "gpu_msg.domain.host_ns_per_msg",
            (ctx.rep_wall_s - engine_s - screen_s) * 1e9 / msgs,
        );
        v
    }
}
