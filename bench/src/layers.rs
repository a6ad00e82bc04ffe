//! Layer probes shared by the workloads' traced passes: each re-issues
//! one layer's public call directly and times it from `bench/`.

use std::time::Instant;

use msg_match::prelude::*;
use simt_sim::trace::{CtaTrace, GridTrace, OpKind, WarpTrace};
use simt_sim::{Gpu, GpuGeneration};

use crate::metrics::Values;
use crate::stats::Summary;
use crate::trace::Tracer;

/// Every workload simulates this device (the paper's headline GPU).
pub const GENERATION: GpuGeneration = GpuGeneration::PascalGtx1080;

/// Wall-time budget of one probe in the traced pass.
const PROBE_SECONDS: f64 = 0.25;

/// Call `f` until [`PROBE_SECONDS`] have passed (at least three calls;
/// exactly three in quick mode) and return every call's output.
pub fn repeat<T>(quick: bool, mut f: impl FnMut() -> T) -> Vec<T> {
    let started = Instant::now();
    let mut outs = Vec::new();
    loop {
        outs.push(f());
        if outs.len() >= 3 && (quick || started.elapsed().as_secs_f64() >= PROBE_SECONDS) {
            return outs;
        }
    }
}

/// [`repeat`] `f` as span `name`; returns the undisturbed wall seconds
/// ([`Summary::quiet`], the estimator the repetitions use) with the last
/// call's output.
pub fn time_quiet<T>(
    tr: &mut Tracer,
    name: &'static str,
    quick: bool,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    let mut outs = repeat(quick, || {
        let t = Instant::now();
        let out = tr.span(name, |_| f());
        (t.elapsed().as_secs_f64(), out)
    });
    let walls: Vec<f64> = outs.iter().map(|(wall, _)| *wall).collect();
    let (_, last) = outs.pop().expect("repeat() calls at least three times");
    (Summary::of(&walls).quiet(), last)
}

/// Host nanoseconds `simt_sim::timing::simulate` spends per replayed op
/// on a fixed synthetic trace: 8 warps × 4096 ops of ALU batches, warp
/// votes, global loads with a dependent consumer, and a barrier every
/// 256 ops. A probe of the timing model alone — not part of any
/// workload's budget.
pub fn timing_probe(tr: &mut Tracer, quick: bool) -> f64 {
    const WARPS: usize = 8;
    const OPS: usize = 4096;
    let warp = || {
        let mut w = WarpTrace::default();
        while w.ops.len() < OPS {
            match w.ops.len() % 256 {
                255 => {
                    w.push(OpKind::Bar);
                }
                k if k % 8 == 0 => {
                    let ld = w.push(OpKind::LdGlobal { transactions: 1 });
                    w.push_dep(OpKind::IAlu { n: 2 }, Some(ld));
                }
                k if k % 8 == 4 => {
                    w.push(OpKind::Vote);
                }
                _ => {
                    w.push(OpKind::IAlu { n: 4 });
                }
            }
        }
        assert_eq!(
            w.ops.len(),
            OPS,
            "the op pattern must tile the trace exactly"
        );
        w
    };
    let grid = GridTrace {
        ctas: vec![CtaTrace {
            warps: (0..WARPS).map(|_| warp()).collect(),
            shared_bytes: 0,
        }],
        threads_per_cta: (WARPS * simt_sim::WARP_SIZE) as u32,
        registers_per_thread: 32,
    };
    let cfg = GENERATION.config();
    let (wall, report) = time_quiet(tr, "simt_sim.timing.replay", quick, || {
        simt_sim::timing::simulate(std::hint::black_box(&grid), &cfg, 1)
    });
    assert!(
        report.cycles > 0,
        "the timing probe must simulate something"
    );
    wall * 1e9 / (WARPS * OPS) as f64
}

/// Host nanoseconds per `SpanRecorder::record_complete` into a
/// preallocated ring.
pub fn span_record_probe() -> f64 {
    const RECORDS: u64 = 100_000;
    let mut rec = obs::SpanRecorder::new(0, 4096);
    let t = Instant::now();
    for i in 0..RECORDS {
        rec.record_complete(obs::SpanCategory::Match, "probe", i, 1, Vec::new());
    }
    let ns = t.elapsed().as_nanos() as f64 / RECORDS as f64;
    assert_eq!(std::hint::black_box(&rec).len(), 4096);
    ns
}

/// What one direct engine replay measured.
#[derive(Debug, Clone, Copy)]
pub struct EngineReplay {
    /// Median wall seconds of one replayed batch.
    pub wall_s: f64,
    /// Messages in the replayed batch.
    pub msgs: usize,
    /// Simulated instructions of the batch.
    pub instructions: u64,
    /// Simulated cycles of the batch.
    pub cycles: u64,
    /// Kernel launches of the batch.
    pub launches: u32,
    /// Request probes served by ballot reuse.
    pub probe_dedups: u64,
}

impl EngineReplay {
    /// Host nanoseconds per simulated warp instruction.
    pub fn ns_per_instr(&self) -> f64 {
        self.wall_s * 1e9 / self.instructions.max(1) as f64
    }

    /// Simulated instructions per simulated cycle.
    pub fn instr_per_cycle(&self) -> f64 {
        self.instructions as f64 / self.cycles.max(1) as f64
    }

    /// Record the interpreter and engine metrics the replay measured.
    pub fn record(&self, v: &mut Values) {
        let msgs = self.msgs as f64;
        v.set("simt_sim.exec.host_ns_per_warp_instr", self.ns_per_instr());
        v.set("msg_match.engine.host_ns_per_msg", self.wall_s * 1e9 / msgs);
        v.set(
            "msg_match.engine.sim_cycles_per_msg",
            self.cycles as f64 / msgs,
        );
        v.set(
            "msg_match.engine.launches_per_batch",
            f64::from(self.launches),
        );
        v.set(
            "msg_match.engine.probe_dedup_share",
            self.probe_dedups as f64 / msgs,
        );
    }
}

/// A self-matching batch shaped like the service's traffic: `len` random
/// tuples over `peers` sources, each with its exact receive.
pub fn self_matching_batch(len: usize, peers: u32, tags: u32, seed: u64) -> Workload {
    let mut w = WorkloadSpec {
        len,
        peers,
        tags,
        seed,
        ..Default::default()
    }
    .generate();
    w.reqs = w
        .msgs
        .iter()
        .map(|m| RecvRequest::exact(m.src, m.tag, m.comm))
        .collect();
    w
}

/// Replay the pinned engine directly on one batch: `MatchEngine::match_with`
/// on a resident device reclaimed before each launch, exactly as the
/// service dispatches it.
pub fn engine_replay(
    tr: &mut Tracer,
    choice: EngineChoice,
    batch: &Workload,
    quick: bool,
) -> EngineReplay {
    let mut gpu = Gpu::new(GENERATION);
    let engine = MatchEngine::default();
    let (wall_s, report) = time_quiet(tr, "msg_match.engine.replay", quick, || {
        gpu.reset_memory();
        engine
            .match_with(&mut gpu, choice, &batch.msgs, &batch.reqs)
            .expect("replay batches carry no wildcards the engine rejects")
    });
    EngineReplay {
        wall_s,
        msgs: batch.msgs.len(),
        instructions: report.instructions,
        cycles: report.cycles,
        launches: report.launches,
        probe_dedups: report.probe_dedups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_probe_trace_is_barrier_consistent_and_measurable() {
        let mut tr = Tracer::new(true);
        let ns = timing_probe(&mut tr, true);
        assert!(ns > 0.0 && ns.is_finite());
        assert_eq!(tr.layer_times()["simt_sim.timing.replay"].calls, 3);
    }

    #[test]
    fn engine_replay_matches_every_message_of_a_self_matching_batch() {
        let batch = self_matching_batch(64, 64, 1 << 12, 7);
        let mut tr = Tracer::new(false);
        let r = engine_replay(&mut tr, EngineChoice::Hash, &batch, true);
        assert_eq!(r.msgs, 64);
        assert!(r.instructions > 0 && r.cycles > 0 && r.launches > 0);
        assert!(r.ns_per_instr() > 0.0 && r.instr_per_cycle() > 0.0);
    }
}
