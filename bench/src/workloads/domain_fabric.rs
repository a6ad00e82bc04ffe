//! `domain-fabric`: an 8-rank all-to-all through `Domain` over a lossy,
//! duplicating, corrupting, reordering simulated wire, driven
//! single-threaded by `send` / `post_recv` / `progress_all` /
//! `take_completions`.
//!
//! Threaded `recv_blocking` and the collectives are deliberately left
//! out: their failures depend on the OS scheduler today (ROADMAP item 1)
//! and would make the failed-operation share non-repeatable.

use std::time::Instant;

use bytes::Bytes;
use fabric::{DeliveryOrder, Fabric, FabricConfig, FabricStats, FaultConfig};
use gpu_msg::{Domain, DomainConfig, EndpointStats, MatcherKind, TransportConfig};
use msg_match::prelude::*;
use msg_match::Workload as Batch;

use crate::layers::{self, GENERATION};
use crate::metrics::Values;
use crate::trace::Tracer;
use crate::workloads::{LayerCtx, Rep, Workload};

/// Endpoints in the all-to-all.
const RANKS: u32 = 8;
/// Messages per ordered `(src, dst)` pair.
const MSGS_PER_PAIR: u32 = 64;
/// Payload sizes alternate between the eager path (≤ 1 KiB threshold)
/// and the RTS/CTS rendezvous path.
const EAGER_BYTES: usize = 64;
const RENDEZVOUS_BYTES: usize = 2048;
/// Progress rounds after which undelivered messages count as failed.
const MAX_ROUNDS: u32 = 4096;
/// Simulated-time budget of the bare fabric replay.
const REPLAY_BUDGET_NS: u64 = 60_000_000_000;

const TOTAL_MSGS: u64 = (RANKS * (RANKS - 1) * MSGS_PER_PAIR) as u64;

/// The wire: 2 % drop, 2 % duplicate, 2 % corrupt, 20 % reorder with up
/// to 8 µs of skew. The retransmit timer sits just above the reorder
/// skew (reordering alone never fires it) and does not back off: with
/// exponential backoff the all-to-all's makespan is set by the one packet
/// unlucky enough to be lost three times, and swings ±25 % between seeds.
fn wire(seed: u64) -> FabricConfig {
    FabricConfig {
        seed,
        retransmit_timeout_ns: 10_000,
        backoff: 1,
        fault: FaultConfig {
            drop_prob: 0.02,
            duplicate_prob: 0.02,
            corrupt_prob: 0.02,
            reorder_prob: 0.20,
            reorder_skew_ns: 8_000,
        },
        ..Default::default()
    }
}

fn domain_config(transport: TransportConfig) -> DomainConfig {
    DomainConfig {
        transport,
        // The hash engine gives up ordering; the endpoints restore it in
        // user space, so real wire disorder exercises the reorder buffer.
        restore_order: matches!(transport, TransportConfig::Fabric(_)),
        ..DomainConfig::new(
            RANKS,
            GENERATION,
            MatcherKind::Hash,
            RelaxationConfig::UNORDERED,
        )
    }
}

/// Canonical text of every constant (hashed into the context block).
pub fn constants() -> String {
    format!(
        "ranks={RANKS} per_pair={MSGS_PER_PAIR} sizes={EAGER_BYTES}/{RENDEZVOUS_BYTES} \
         max_rounds={MAX_ROUNDS} domain={:?}",
        domain_config(TransportConfig::Fabric(wire(0)))
    )
}

/// One scripted send.
struct Send {
    src: u32,
    dst: u32,
    tag: u32,
    payload: Bytes,
}

/// What one scripted run produced.
struct RunOutput {
    wall_s: f64,
    /// Per rank: `(handle, source, tag, payload)` of every completion.
    received: Vec<Vec<(u64, u32, u32, Bytes)>>,
    rounds: u32,
    endpoints: Vec<EndpointStats>,
    fabric: Option<FabricStats>,
}

/// The bare-fabric replay of the identical mix.
struct FabricReplay {
    stats: FabricStats,
    finish_ns: u64,
}

/// `domain-fabric`, set up for one seed.
pub struct DomainFabric {
    seed: u64,
    script: Vec<Send>,
    /// Per-rank completions of the direct-transport run of the script.
    oracle: Vec<Vec<(u64, u32, u32, Bytes)>>,
    replay: FabricReplay,
    /// Simulated instructions per simulated cycle of the hash engine at
    /// the run's mean batch shape (endpoints report cycles only).
    instr_per_cycle: f64,
    last: Option<RunOutput>,
}

impl DomainFabric {
    /// Everything `setup_s` times: the seeded script, the direct-wire
    /// oracle run, the bare-fabric replay that supplies the simulated
    /// finish time, and one warm-up repetition.
    pub fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let mut script = Vec::with_capacity(TOTAL_MSGS as usize);
        for m in 0..MSGS_PER_PAIR {
            for src in 0..RANKS {
                for dst in (0..RANKS).filter(|&d| d != src) {
                    let len = if m % 2 == 0 {
                        EAGER_BYTES
                    } else {
                        RENDEZVOUS_BYTES
                    };
                    // Seed-dependent fill: a payload delivered to the
                    // wrong receive cannot pass for the right one.
                    let fill = (seed as u32)
                        .wrapping_add(src * 31 + dst * 7 + m)
                        .to_le_bytes()[0];
                    script.push(Send {
                        src,
                        dst,
                        tag: m,
                        payload: Bytes::from(vec![fill; len]),
                    });
                }
            }
        }
        let mut off = Tracer::new(false);
        let oracle = run_script(&script, TransportConfig::Direct, &mut off).received;
        let replay = tr.span("fabric.replay", |_| replay_fabric(&script, seed));
        let mut w = DomainFabric {
            seed,
            script,
            oracle,
            replay,
            instr_per_cycle: 0.0,
            last: None,
        };
        let warm = run_script(&w.script, TransportConfig::Fabric(wire(seed)), &mut off);
        w.instr_per_cycle = tr.span("msg_match.engine.replay", |_| {
            layers::engine_replay(&mut off, EngineChoice::Hash, &w.replay_batch(&warm), true)
                .instr_per_cycle()
        });
        w
    }

    /// A self-matching batch of the run's mean launch shape over the
    /// script's peer and tag space.
    fn replay_batch(&self, run: &RunOutput) -> Batch {
        let launches: u64 = run.endpoints.iter().map(|e| e.launches).sum();
        let matches: u64 = run.endpoints.iter().map(|e| e.matches).sum();
        let len = (matches as f64 / launches.max(1) as f64).round().max(1.0) as usize;
        layers::self_matching_batch(len, RANKS - 1, MSGS_PER_PAIR, self.seed)
    }

    fn verify(&self, run: &RunOutput) -> u64 {
        let mut bad = 0u64;
        for (got, want) in run.received.iter().zip(&self.oracle) {
            let mut got = got.clone();
            got.sort_by_key(|c| c.0);
            // Handles are dense per rank, so a missing completion shifts
            // nothing: compare by handle.
            bad += want
                .iter()
                .filter(|w| got.binary_search_by_key(&w.0, |c| c.0).map(|i| &got[i]) != Ok(*w))
                .count() as u64;
            bad += got.len().saturating_sub(want.len()) as u64;
        }
        if let Some(fs) = &run.fabric {
            bad += fs.messages_sent.abs_diff(fs.messages_delivered);
            bad += fs.exhausted_retries;
        }
        bad
    }

    fn sim_values(&self, run: &RunOutput) -> Vec<(&'static str, f64)> {
        let fs = run.fabric.expect("the timed runs use the fabric wire");
        let ep = &run.endpoints;
        let cycles: u64 = ep.iter().map(|e| e.kernel_cycles).sum();
        let launches: u64 = ep.iter().map(|e| e.launches).sum();
        let instr = cycles as f64 * self.instr_per_cycle;
        let payload_bytes: u64 = self.script.iter().map(|s| s.payload.len() as u64).sum();
        let traversals = (fs.packets_sent + fs.retransmits).max(1) as f64;
        let probes: u64 = ep.iter().map(|e| e.prefilter_probes).sum();
        let max_of = |f: fn(&EndpointStats) -> usize| ep.iter().map(f).max().unwrap_or(0) as f64;
        vec![
            (
                "sim_msgs_per_s",
                self.replay.stats.messages_delivered as f64 / (self.replay.finish_ns as f64 * 1e-9),
            ),
            (
                "fabric.net.sim_finish_us",
                self.replay.finish_ns as f64 * 1e-3,
            ),
            (
                "simt_sim.exec.warp_instr_per_msg",
                instr / TOTAL_MSGS as f64,
            ),
            ("simt_sim.exec.launches", launches as f64),
            (
                "simt_sim.exec.instr_per_launch",
                instr / launches.max(1) as f64,
            ),
            (
                "fabric.retransmit_share",
                fs.retransmits as f64 / traversals,
            ),
            (
                "fabric.wire_overhead_ratio",
                fs.overhead_ratio(payload_bytes),
            ),
            (
                "fabric.eager_share",
                fs.eager_messages as f64 / fs.messages_sent.max(1) as f64,
            ),
            ("fabric.credit_stall_us", fs.credit_stall_ns as f64 * 1e-3),
            ("fabric.dup_dropped", fs.duplicate_packets_dropped as f64),
            ("fabric.corrupt_dropped", fs.corrupt_packets_dropped as f64),
            ("fabric.exhausted_retries", fs.exhausted_retries as f64),
            ("gpu_msg.domain.progress_rounds", f64::from(run.rounds)),
            (
                "gpu_msg.domain.umq_high_water",
                max_of(|e| e.umq_high_water),
            ),
            (
                "gpu_msg.domain.prq_high_water",
                max_of(|e| e.prq_high_water),
            ),
            (
                "gpu_msg.reorder.high_water",
                max_of(|e| e.reorder_high_water),
            ),
            (
                "gpu_msg.reorder.duplicates",
                ep.iter().map(|e| e.reorder_duplicates).sum::<u64>() as f64,
            ),
            (
                "msg_match.prefilter.rejected_share",
                ep.iter().map(|e| e.prefilter_rejections).sum::<u64>() as f64
                    / probes.max(1) as f64,
            ),
            (
                "msg_match.prefilter.skipped_launch_share",
                ep.iter().map(|e| e.prefilter_skipped_launches).sum::<u64>() as f64
                    / (launches + ep.iter().map(|e| e.prefilter_skipped_launches).sum::<u64>())
                        .max(1) as f64,
            ),
        ]
    }
}

/// Drive the script through a fresh domain: every send, then every
/// receive (each rank posts its peers' messages in send order), then
/// progress rounds until everything completed.
fn run_script(script: &[Send], transport: TransportConfig, tr: &mut Tracer) -> RunOutput {
    let t = Instant::now();
    let d = tr.span("gpu_msg.domain.new", |_| {
        Domain::with_config(domain_config(transport))
    });
    for s in script {
        tr.span("gpu_msg.domain.send", |_| {
            d.send(s.src, s.dst, s.tag, 0, s.payload.clone())
        });
    }
    for s in script {
        tr.span("gpu_msg.domain.post_recv", |_| {
            d.post_recv(s.dst, RecvRequest::exact(s.src, s.tag, 0))
        })
        .expect("exact receives are legal at every relaxation level");
    }
    let mut received: Vec<Vec<(u64, u32, u32, Bytes)>> = vec![Vec::new(); RANKS as usize];
    let mut done = 0usize;
    let mut rounds = 0u32;
    let mut wire_ok = true;
    while done < script.len() && rounds < MAX_ROUNDS && wire_ok {
        wire_ok = tr
            .span("gpu_msg.domain.progress_all", |_| d.progress_all())
            .is_ok();
        rounds += 1;
        for rank in 0..RANKS {
            let completions = tr.span("gpu_msg.domain.take_completions", |_| {
                d.take_completions(rank)
            });
            done += completions.len();
            received[rank as usize].extend(completions.into_iter().map(|c| {
                let e = c.message.envelope;
                (c.handle.0, e.src, e.tag, c.message.payload)
            }));
        }
    }
    RunOutput {
        wall_s: t.elapsed().as_secs_f64(),
        received,
        rounds,
        endpoints: (0..RANKS).map(|r| d.stats(r)).collect(),
        fabric: d.fabric_stats(),
    }
}

/// The identical mix on a bare `Fabric`: every send at time zero, then
/// the event loop until quiescence. The wire's packet-level behaviour is
/// a pure function of its configuration and the submitted messages, so
/// these counters equal the domain run's.
fn replay_fabric(script: &[Send], seed: u64) -> FabricReplay {
    let mut net = Fabric::new(
        RANKS,
        FabricConfig {
            order: DeliveryOrder::Unordered,
            ..wire(seed)
        },
    );
    for s in script {
        net.send(
            s.src,
            s.dst,
            Envelope::new(s.src, s.tag, 0),
            s.payload.clone(),
        );
    }
    net.run_until_quiescent(REPLAY_BUDGET_NS)
        .expect("a lossy wire without link faults always quiesces");
    FabricReplay {
        stats: net.stats(),
        finish_ns: net.now_ns(),
    }
}

impl Workload for DomainFabric {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let run = run_script(&self.script, TransportConfig::Fabric(wire(self.seed)), tr);
        let failed = tr.span("oracle.verify", |_| self.verify(&run));
        let cycles: u64 = run.endpoints.iter().map(|e| e.kernel_cycles).sum();
        let rep = Rep {
            wall_s: run.wall_s,
            msgs: run.received.iter().map(Vec::len).sum::<usize>() as u64,
            attempted: TOTAL_MSGS,
            failed,
            sim_instr: cycles as f64 * self.instr_per_cycle,
            sim: self.sim_values(&run),
        };
        self.last = Some(run);
        rep
    }

    fn layers(&mut self, tr: &mut Tracer, ctx: &LayerCtx) -> Values {
        let last = self.last.take().expect("layers() follows a repetition");
        let mut v = Values::default();

        let (fabric_s, replay) = layers::time_quiet(tr, "fabric.replay", ctx.quick, || {
            replay_fabric(&self.script, self.seed)
        });
        let traversals = replay.stats.packets_sent + replay.stats.retransmits;
        v.set(
            "fabric.net.host_ns_per_packet",
            fabric_s * 1e9 / traversals.max(1) as f64,
        );

        let batch = self.replay_batch(&last);
        let engine = layers::engine_replay(tr, EngineChoice::Hash, &batch, ctx.quick);
        engine.record(&mut v);

        // What is left of the repetition once the wire and the engine are
        // taken out is the domain's own work (queues, digests, reorder).
        let cycles: u64 = last.endpoints.iter().map(|e| e.kernel_cycles).sum();
        let engine_s = engine.ns_per_instr() * cycles as f64 * self.instr_per_cycle * 1e-9;
        v.set(
            "gpu_msg.domain.host_ns_per_msg",
            (ctx.rep_wall_s - fabric_s - engine_s) * 1e9 / TOTAL_MSGS as f64,
        );
        v
    }
}
