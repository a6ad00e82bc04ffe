//! Execution scheduling for the sharded service: per-shard virtual-time
//! epoch groups advanced either on one OS thread or on one thread per
//! conflict group, synchronized PDES-style at supervisor barriers.
//!
//! There is no global simulated clock. Shards advance in *epoch groups*:
//! each epoch group owns the complete state a group of shards needs
//! (device, queue, stream watermarks, fault schedule) and advances
//! through its own local events. Epoch groups only interact at
//! *barriers* — supervisor health-check times, where failover rewires
//! placement — so between barriers they can run on separate OS threads.
//! Each epoch's horizon is the next barrier: every epoch group starts
//! the epoch at the same instant and ends it exactly at the barrier, so
//! no group ever lags another and no cross-group event can precede it.
//!
//! Determinism is the contract: both schedulers produce byte-identical
//! artefacts because every side effect is keyed to *local* events
//! (activations), never to whichever boundary times a particular
//! epoch group partition happens to visit:
//!
//! * a shard sheds, samples queue depth and dispatches only when it was
//!   *activated* at the current instant — by its own commit, fault,
//!   wake, checkpoint edge or a barrier tick — so a merged epoch group's
//!   extra foreign-time boundaries change nothing;
//! * admission interleaves arrivals across streams in (arrival-time,
//!   stream) order, so a redirect target's queue content is a pure
//!   function of the arrival set, not of boundary granularity;
//! * spill instants coalesce per run and are stamped with the arrival
//!   time of the last spill, not the boundary time that observed it.
//!
//! `tests/parallel_differential.rs` pins the equivalence per engine,
//! per seed, including under fault injection.

use std::collections::VecDeque;

use msg_match::prelude::*;
use simt_sim::Gpu;

use crate::fault::{FaultEvent, FaultKind};
use crate::metrics::ShardMetrics;
use crate::recovery::{RecoveryConfig, StreamState};
use crate::service::{FaultTolerance, ServiceShard, ServiceStream, ShardedServiceConfig};
use crate::supervisor::Supervisor;
use crate::tenancy::{
    AdmitVerdict, ArrivalPattern, FillLimits, PlannedMigration, ReshardPlanner, ReshardPolicy,
    StreamQos,
};

/// How the sharded service executes its shard epoch groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// All shards in one merged virtual-time epoch group on the calling
    /// thread: the one-thread case of [`Scheduler::ThreadPerShard`].
    #[default]
    GlobalClock,
    /// One OS thread per conflict group of shards (scoped threads over
    /// the `crossbeam` shim), synchronized at supervisor barriers.
    /// Produces byte-identical artefacts to [`Scheduler::GlobalClock`].
    ThreadPerShard,
}

/// One queued arrival: which stream it belongs to (streams are keyed by
/// home shard), its per-stream sequence number, and when it arrived.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QEntry {
    pub(crate) stream: usize,
    pub(crate) seq: u64,
    pub(crate) arrived: f64,
    /// The stream's placement epoch when the entry was (re-)enqueued.
    /// Failover bumps the epoch as it transfers a stream, so a copy
    /// still in flight on the old owner commits under a stale epoch and
    /// is fenced off at the commit point.
    pub(crate) epoch: u64,
}

/// A dispatched batch occupying a shard's device until `until`.
pub(crate) struct InFlight {
    until: f64,
    entries: Vec<QEntry>,
    report: GpuMatchReport,
    service: f64,
}

/// What a shard's device is doing right now.
pub(crate) enum Phase {
    /// Ready to dispatch.
    Idle,
    /// Matching a batch; commits at `InFlight::until`.
    Busy(Box<InFlight>),
    /// Unresponsive but state intact; resumes any interrupted batch.
    Hung {
        until: f64,
        resume: Option<Box<InFlight>>,
    },
    /// Crashed; booting a fresh device.
    Restarting { until: f64, crashed_at: f64 },
    /// Restoring the snapshot and replaying the journal.
    Replaying { until: f64, crashed_at: f64 },
    /// Taking a periodic snapshot (pauses matching for its cost).
    Checkpointing { until: f64, started: f64 },
}

impl Phase {
    fn next_event(&self) -> Option<f64> {
        match self {
            Phase::Idle => None,
            Phase::Busy(f) => Some(f.until),
            Phase::Hung { until, .. }
            | Phase::Restarting { until, .. }
            | Phase::Replaying { until, .. }
            | Phase::Checkpointing { until, .. } => Some(*until),
        }
    }

    /// The batch on the device, running or interrupted by a hang.
    fn inflight(&self) -> Option<&InFlight> {
        match self {
            Phase::Busy(f)
            | Phase::Hung {
                resume: Some(f), ..
            } => Some(f),
            _ => None,
        }
    }

    /// Entries occupying the device (they count against queue capacity).
    fn inflight_len(&self) -> usize {
        self.inflight().map_or(0, |f| f.entries.len())
    }

    /// Is any in-flight entry from stream `s`? (Failover handback must
    /// wait until the target has fully drained the inherited stream.)
    fn holds_stream(&self, s: usize) -> bool {
        self.inflight()
            .is_some_and(|f| f.entries.iter().any(|e| e.stream == s))
    }

    /// Would a health check get an answer?
    fn responsive(&self) -> bool {
        !matches!(
            self,
            Phase::Hung { .. } | Phase::Restarting { .. } | Phase::Replaying { .. }
        )
    }

    /// Is the shard dark (device state unavailable)? Arrivals admitted
    /// while dark are journaled but not queued; the recovery rebuild
    /// restores them.
    fn dark(&self) -> bool {
        matches!(self, Phase::Restarting { .. } | Phase::Replaying { .. })
    }
}

/// Arguments of one trace event.
type Args = Vec<(&'static str, obs::ArgValue)>;

/// Simulated seconds as the recorders' integer nanoseconds.
fn ns(t: f64) -> u64 {
    (t * 1e9).round() as u64
}

/// Everything one shard's execution owns: the device, the pending
/// queue, the fault schedule and the counters. Moved wholesale between
/// the coordinator and whichever epoch group runs the shard this epoch.
pub(crate) struct ShardCell<'a> {
    idx: usize,
    gpu: &'a mut Gpu,
    queue: VecDeque<QEntry>,
    phase: Phase,
    metrics: ShardMetrics,
    last_activity: f64,
    last_spill: f64,
    slow_until: f64,
    slow_factor: f64,
    /// Until when the shard is partitioned off (unreachable from the
    /// supervisor and its peers, state intact, still servicing what it
    /// holds). `NEG_INFINITY` when never partitioned.
    partitioned_until: f64,
    next_ckpt: f64,
    active_choice: EngineChoice,
    home_choice: EngineChoice,
    faults: Vec<FaultEvent>,
    fault_idx: usize,
    /// Coalesced spill run: count and arrival time of the last spill,
    /// flushed as one obs instant on the next admit, dispatch or at the
    /// end of the run.
    pend_spill: u64,
    pend_spill_t: f64,
    /// Coalesced admission-shed run (QoS rejections), same flushing
    /// discipline as spills.
    pend_shed: u64,
    pend_shed_t: f64,
    /// Armed local wake (dispatch re-evaluation) time.
    wake: Option<f64>,
    /// True when the shard had a local event at the current instant and
    /// must re-evaluate checkpoint/shed/dispatch.
    active: bool,
    /// Deterministic 1-in-K admission into the causal flow trace. A
    /// pure function of `(seed, flow id)`, so the sampled set — and
    /// therefore the recorded event stream — is scheduler-invariant.
    sampler: obs::FlowSampler,
}

impl ShardCell<'_> {
    /// Queued plus in-flight entries: the backlog admission gates on
    /// and the supervisor and the reshard planner compare.
    fn backlog(&self) -> usize {
        self.queue.len() + self.phase.inflight_len()
    }

    /// Does a health check at `t` reach a responsive device? A
    /// partitioned shard is healthy but cut off until its window closes.
    fn reachable_at(&self, t: f64) -> bool {
        self.phase.responsive() && self.partitioned_until <= t
    }

    /// Record an instant at simulated time `t`. This moves the
    /// recorder's clock, which the next launch spans start from, so the
    /// order of calls is part of the trace.
    fn instant(&mut self, t: f64, cat: obs::SpanCategory, name: &'static str, args: Args) {
        if let Some(rec) = self.gpu.obs.as_mut() {
            rec.set_now_ns(ns(t));
            rec.record_instant(cat, name, args);
        }
    }

    /// Record the span `[t0, t1]` without moving the recorder's clock.
    fn span(&mut self, t0: f64, t1: f64, cat: obs::SpanCategory, name: &'static str, args: Args) {
        if let Some(rec) = self.gpu.obs.as_mut() {
            let (t0, t1) = (ns(t0), ns(t1));
            rec.record_complete(cat, name, t0, t1.saturating_sub(t0), args);
        }
    }

    /// Record a point of message `(stream, seq)`'s causal flow at `t`
    /// when tracing is on and the sampler admits the message; `args`
    /// is only built then.
    fn flow(
        &mut self,
        stream: usize,
        seq: u64,
        name: &'static str,
        phase: obs::FlowPhase,
        t: f64,
        args: impl FnOnce() -> Args,
    ) {
        let Some(rec) = self.gpu.obs.as_mut() else {
            return;
        };
        let fid = obs::FlowId::service(stream as u32, seq);
        if self.sampler.admits(fid) {
            rec.record_flow(name, fid, phase, ns(t), args());
        }
    }

    /// Emit the pending spill and admission-shed runs as one instant
    /// each, stamped with the run's last arrival.
    fn flush_spills(&mut self) {
        if self.pend_spill > 0 {
            let count = vec![("count", obs::ArgValue::U64(self.pend_spill))];
            self.instant(self.pend_spill_t, obs::SpanCategory::Spill, "spill", count);
            self.pend_spill = 0;
        }
        if self.pend_shed > 0 {
            let count = vec![("count", obs::ArgValue::U64(self.pend_shed))];
            self.instant(
                self.pend_shed_t,
                obs::SpanCategory::Shed,
                "admission_shed",
                count,
            );
            self.pend_shed = 0;
        }
    }
}

/// Per-stream state: the arrival generator cursor, the recovery
/// watermarks, the optional committed-seq journal, and the tenant QoS
/// gate. Streams are *slots* in the placement — their home shard is
/// `placement.home_of_slot(idx)`, not `idx` itself.
pub(crate) struct StreamCell<'a> {
    idx: usize,
    msgs: &'a [Envelope],
    rate: f64,
    state: StreamState,
    seen: u64,
    /// Placement epoch, bumped each time failover transfers the stream
    /// to a new owner; commits stamped with an older epoch are fenced.
    epoch: u64,
    completions: Option<Vec<u64>>,
    /// Arrival-time shape (uniform for untenanted streams).
    pattern: ArrivalPattern,
    /// Owning tenant (0 for the implicit single tenant).
    tenant: u32,
    /// Per-stream QoS gate (unmetered guaranteed for untenanted streams,
    /// which admits on raw capacity).
    qos: StreamQos,
    /// Per-stream overflow split, aggregated per tenant at the end.
    spilled_n: u64,
    shed_n: u64,
    matched_n: u64,
}

impl StreamCell<'_> {
    /// The journal window `[committed, admitted)` as queue entries under
    /// the stream's current epoch, in admission order: everything a
    /// stream's new owner or a rebuilt queue must still match.
    fn window(&self) -> impl Iterator<Item = QEntry> + '_ {
        let committed = self.state.committed;
        self.state
            .journal
            .iter()
            .filter(move |&&(seq, _)| seq >= committed)
            .map(move |&(seq, arrived)| QEntry {
                stream: self.idx,
                seq,
                arrived,
                epoch: self.epoch,
            })
    }
}

/// Epoch-constant context shared (immutably) by every epoch group.
struct EpochEnv<'a> {
    cfg: ShardedServiceConfig,
    capacity: usize,
    threshold: usize,
    recovery: Option<RecoveryConfig>,
    placement: &'a ShardPlacement,
    shedding: &'a [bool],
    shed_deadline: f64,
    /// Queue-fill ceilings for non-guaranteed QoS classes.
    fill: FillLimits,
}

/// A virtual-time epoch group: one conflict group's shards and streams plus
/// its own simulated clock.
struct EpochGroup<'a> {
    now: f64,
    shards: Vec<ShardCell<'a>>,
    streams: Vec<StreamCell<'a>>,
}

fn spos(cells: &[StreamCell], idx: usize) -> usize {
    cells
        .binary_search_by_key(&idx, |c| c.idx)
        .expect("stream is in this epoch group")
}

/// The stall class that dominated a batch's critical path (the flow
/// trace annotates each sampled match with it).
fn dominant_stall(report: &GpuMatchReport) -> &'static str {
    const LABELS: [&str; 5] = [
        "issue",
        "mem_dependency",
        "barrier",
        "occupancy_wait",
        "pipe_contention",
    ];
    let mut best = 0;
    for (i, &c) in report.stall_cycles.iter().enumerate() {
        if c > report.stall_cycles[best] {
            best = i;
        }
    }
    LABELS[best]
}

/// Deliver a completed batch: advance each stream's commit watermark,
/// suppressing entries a concurrent path (failover transfer, journal
/// replay) already delivered — the idempotent-commit half of
/// exactly-once matching. Without fault tolerance no snapshot will
/// replay a committed entry, so its journal entry goes too.
fn commit_batch(
    inf: InFlight,
    cell: &mut ShardCell,
    streams: &mut [StreamCell],
    recovery: Option<RecoveryConfig>,
) {
    cell.metrics.busy_seconds += inf.service;
    cell.metrics.profile.absorb(&inf.report);
    cell.metrics.batches += 1;
    cell.metrics.batch_size.record(inf.entries.len() as f64);
    cell.metrics.service_time.record(inf.service);
    let stall = dominant_stall(&inf.report);
    for e in &inf.entries {
        let sp = spos(streams, e.stream);
        let sc = &mut streams[sp];
        if e.epoch < sc.epoch {
            // The entry was dispatched before a failover transferred
            // the stream away: the new owner holds its own copy (from
            // the journal window), so this late commit must not touch
            // the watermark — the fence that keeps a partitioned shard
            // healing back from double-committing stale work.
            cell.metrics.fenced_commits += 1;
            continue;
        }
        if e.seq < sc.state.committed {
            cell.metrics.replay_duplicates += 1;
            continue;
        }
        debug_assert_eq!(
            e.seq, sc.state.committed,
            "per-stream commits are FIFO: shard {} stream {}",
            cell.idx, e.stream
        );
        sc.state.committed = e.seq + 1;
        if recovery.is_none() {
            sc.state.truncate_journal(sc.state.committed);
        }
        sc.matched_n += 1;
        cell.metrics.matched += 1;
        cell.metrics.match_latency.record(inf.until - e.arrived);
        if let Some(c) = sc.completions.as_mut() {
            c.push(e.seq);
        }
        let (step, end) = (obs::FlowPhase::Step, obs::FlowPhase::End);
        cell.flow(e.stream, e.seq, "matched", step, inf.until, || {
            vec![("stall", obs::ArgValue::Text(stall.to_string()))]
        });
        cell.flow(e.stream, e.seq, "delivered", end, inf.until, Vec::new);
    }
    cell.last_activity = cell.last_activity.max(inf.until);
}

/// Hand stream `sc` from shard `from` to shard `to` at barrier `tick`:
/// the one transfer failover and migration share (`DESIGN.md` §13).
/// `from`'s queued copies die, since the journal is the durable source;
/// the window `[committed, admitted)` joins `to`'s queue in admission
/// order, and each sampled arrival's flow chain gains a `step` point.
/// A copy still in flight elsewhere commits first and the transferred
/// duplicate is suppressed by the watermark, or it is fenced by a
/// bumped epoch. Returns the number of entries transferred.
fn hand_off(
    cells: &mut [ShardCell],
    sc: &StreamCell,
    from: usize,
    to: usize,
    tick: f64,
    step: &'static str,
) -> u64 {
    cells[from].queue.retain(|e| e.stream != sc.idx);
    let tc = &mut cells[to];
    let mut transferred = 0u64;
    for e in sc.window() {
        tc.queue.push_back(e);
        tc.flow(e.stream, e.seq, step, obs::FlowPhase::Step, tick, || {
            vec![("from", obs::ArgValue::U64(from as u64))]
        });
        transferred += 1;
    }
    tc.metrics.transferred_in += transferred;
    transferred
}

/// When will `need` more arrivals have been generated for the streams
/// currently routed to shard `x`? Returns the wake time (half an
/// arrival past the filling arrival, to dodge float truncation), or
/// `None` when no stream feeds the shard.
fn fill_wake(
    streams: &[StreamCell],
    placement: &ShardPlacement,
    x: usize,
    need: usize,
) -> Option<f64> {
    let mut cursors: Vec<(ArrivalPattern, f64, u64)> = streams
        .iter()
        .filter(|sc| placement.target_of(sc.idx) == x && sc.rate > 0.0)
        .map(|sc| (sc.pattern, sc.rate, sc.seen))
        .collect();
    if cursors.is_empty() {
        return None;
    }
    let mut wake = 0.0f64;
    for _ in 0..need.max(1) {
        let (pat, rate, v) = cursors
            .iter_mut()
            .min_by(|a, b| {
                let ta = a.0.arrival_time(a.2 + 1, a.1);
                let tb = b.0.arrival_time(b.2 + 1, b.1);
                ta.partial_cmp(&tb).expect("arrival times are finite")
            })
            .expect("cursors is non-empty");
        *v += 1;
        wake = pat.wake_after(*v, *rate);
    }
    Some(wake)
}

impl<'a> EpochGroup<'a> {
    /// Process everything due at `self.now` in a fixed intra-instant
    /// order: admission up to the horizon, fault injections, then phase
    /// transitions — so a crash beats a commit due at the same instant.
    /// Cells whose own state changed (or whose armed wake / checkpoint
    /// edge is exactly now) are marked active for the following
    /// [`post`](Self::post).
    fn boundary(&mut self, env: &EpochEnv) {
        let EpochGroup {
            now,
            shards,
            streams,
        } = self;
        let now = *now;

        // ---- Admission, interleaved across streams in (arrival time,
        // stream) order so queue contents are boundary-invariant.
        let horizon = now.min(env.cfg.duration);
        loop {
            let mut best: Option<(f64, usize)> = None;
            for (sp, sc) in streams.iter().enumerate() {
                if sc.rate <= 0.0 || sc.msgs.is_empty() {
                    continue;
                }
                let due = sc.pattern.due(sc.rate, horizon);
                if sc.seen >= due {
                    continue;
                }
                let t = sc.pattern.arrival_time(sc.seen + 1, sc.rate);
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, sp));
                }
            }
            let Some((t, sp)) = best else { break };
            let sc = &mut streams[sp];
            let s = sc.idx;
            let xp = shards
                .binary_search_by_key(&env.placement.target_of(s), |c| c.idx)
                .expect("target shard is in this epoch group");
            let cell = &mut shards[xp];
            cell.metrics.arrivals += 1;
            // QoS verdict: the stream's token bucket and class fill
            // ceiling against the shard's backlog. Both inputs are
            // boundary-invariant, so the verdict is identical under
            // either scheduler.
            match sc.qos.admit(t, cell.backlog(), env.capacity, env.fill) {
                AdmitVerdict::Admit => {
                    // An admit ends any spill/shed run.
                    cell.flush_spills();
                    let seq = sc.state.admit(t);
                    // A dark shard's queue died with its device;
                    // journal-only until the rebuild restores it.
                    if !cell.phase.dark() {
                        cell.queue.push_back(QEntry {
                            stream: s,
                            seq,
                            arrived: t,
                            epoch: sc.epoch,
                        });
                    }
                    cell.metrics.admitted += 1;
                    cell.flow(s, seq, "admitted", obs::FlowPhase::Start, t, || {
                        vec![("stream", obs::ArgValue::U64(s as u64))]
                    });
                }
                AdmitVerdict::Spill => {
                    cell.metrics.overflow.spilled += 1;
                    cell.metrics.ever_spilled = true;
                    cell.last_spill = t;
                    cell.pend_spill += 1;
                    cell.pend_spill_t = t;
                    sc.spilled_n += 1;
                }
                AdmitVerdict::Shed => {
                    // A quota breach sheds the offending tenant's own
                    // arrival — never admitted, never journaled, so it
                    // consumes nothing downstream.
                    cell.metrics.overflow.shed += 1;
                    cell.pend_shed += 1;
                    cell.pend_shed_t = t;
                    sc.shed_n += 1;
                }
            }
            sc.seen += 1;
        }

        // In drain mode `duration` is a universal local event: every
        // cell re-evaluates dispatch exactly there, so partial tails
        // drain no matter how the epoch groups were partitioned (the time is
        // absolute, hence scheduler-invariant).
        if env.cfg.drain && now == env.cfg.duration {
            for cell in shards.iter_mut() {
                cell.active = true;
            }
        }

        // ---- Fault injections due now (a crash beats any commit
        // scheduled for the same instant: faults process first).
        for cell in shards.iter_mut() {
            while cell.fault_idx < cell.faults.len() && cell.faults[cell.fault_idx].at <= now {
                let ev = cell.faults[cell.fault_idx];
                cell.fault_idx += 1;
                cell.active = true;
                match ev.kind {
                    FaultKind::Crash => {
                        let r = env.recovery.expect("faults imply fault tolerance");
                        cell.metrics.crashes += 1;
                        if cell.phase.inflight_len() > 0 {
                            cell.metrics.lost_batches += 1;
                        }
                        // Device state is gone: queue and in-flight batch
                        // alike. The journal still covers every admitted
                        // seq, so nothing is lost — only re-matched.
                        cell.queue.clear();
                        let crashed_at = match cell.phase {
                            // A crash during recovery restarts the
                            // restart but keeps the original outage start
                            // for the latency histogram.
                            Phase::Restarting { crashed_at, .. }
                            | Phase::Replaying { crashed_at, .. } => crashed_at,
                            _ => ev.at,
                        };
                        cell.phase = Phase::Restarting {
                            until: ev.at + r.restart_latency,
                            crashed_at,
                        };
                        cell.instant(ev.at, obs::SpanCategory::Crash, "crash", vec![]);
                    }
                    FaultKind::Hang { seconds } => {
                        cell.metrics.hangs += 1;
                        let prev = std::mem::replace(&mut cell.phase, Phase::Idle);
                        cell.phase = match prev {
                            Phase::Busy(mut inf) => {
                                // The stuck kernel finishes late.
                                inf.until += seconds;
                                Phase::Hung {
                                    until: ev.at + seconds,
                                    resume: Some(inf),
                                }
                            }
                            Phase::Hung { until, resume } => Phase::Hung {
                                until: until.max(ev.at + seconds),
                                resume,
                            },
                            // Hanging a dead shard changes nothing.
                            p @ (Phase::Restarting { .. } | Phase::Replaying { .. }) => p,
                            // Idle or mid-checkpoint (snapshot abandoned).
                            _ => Phase::Hung {
                                until: ev.at + seconds,
                                resume: None,
                            },
                        };
                        cell.instant(ev.at, obs::SpanCategory::Crash, "hang", vec![]);
                    }
                    FaultKind::Slow { factor, seconds } => {
                        cell.slow_until = ev.at + seconds;
                        cell.slow_factor = factor.max(1.0);
                        cell.instant(ev.at, obs::SpanCategory::Crash, "slow", vec![]);
                    }
                    FaultKind::Partition { seconds } => {
                        // The shard is cut off, not down: it keeps
                        // servicing what it holds, but health checks
                        // see it unreachable until the window closes.
                        cell.metrics.partitions += 1;
                        cell.partitioned_until = cell.partitioned_until.max(ev.at + seconds);
                        let until_ns = obs::ArgValue::U64(ns(ev.at + seconds));
                        cell.instant(
                            ev.at,
                            obs::SpanCategory::Partition,
                            "partition",
                            vec![("until_ns", until_ns)],
                        );
                    }
                    FaultKind::CorruptCheckpoint => {
                        // Flip the newest durable snapshot of every
                        // stream the shard checkpoints. Harmless until
                        // the next crash, when restore must fall back a
                        // generation and replay a longer journal.
                        let x = cell.idx;
                        let mut corrupted = 0u64;
                        for sc in streams.iter_mut() {
                            if env.placement.target_of(sc.idx) == x
                                && sc.state.corrupt_latest_snapshot()
                            {
                                corrupted += 1;
                            }
                        }
                        cell.metrics.corrupt_checkpoints += corrupted;
                        cell.instant(
                            ev.at,
                            obs::SpanCategory::Corruption,
                            "checkpoint_corruption",
                            vec![("streams", obs::ArgValue::U64(corrupted))],
                        );
                    }
                }
            }
        }

        // ---- Phase transitions due now (commits, hang ends, recovery
        // milestones, checkpoint completions).
        for cell in shards.iter_mut() {
            while cell.phase.next_event().is_some_and(|t| t <= now) {
                cell.active = true;
                let phase = std::mem::replace(&mut cell.phase, Phase::Idle);
                match phase {
                    Phase::Busy(inf) => {
                        commit_batch(*inf, cell, streams, env.recovery);
                    }
                    Phase::Hung { resume, .. } => {
                        cell.phase = match resume {
                            Some(inf) => Phase::Busy(inf),
                            None => Phase::Idle,
                        };
                    }
                    Phase::Restarting { until, crashed_at } => {
                        // Device is back; scan the snapshot and the
                        // journal to size the replay.
                        let r = env.recovery.expect("recovering implies fault tolerance");
                        let x = cell.idx;
                        let mut scanned = 0u64;
                        for sc in streams.iter() {
                            if env.placement.target_of(sc.idx) != x {
                                continue;
                            }
                            // Restore from the newest snapshot whose
                            // checksum verifies; every corrupt
                            // generation skipped is a fallback that
                            // widens the replay window.
                            let (snap, fallbacks) = sc.state.restore_snapshot();
                            cell.metrics.snapshot_fallbacks += fallbacks;
                            for &(seq, _) in sc.state.journal.iter() {
                                if seq < snap.admitted {
                                    cell.metrics.snapshot_restored += 1;
                                } else {
                                    cell.metrics.journal_replayed += 1;
                                }
                                scanned += 1;
                            }
                        }
                        cell.phase = Phase::Replaying {
                            until: until + r.replay_cost_per_entry * scanned as f64,
                            crashed_at,
                        };
                    }
                    Phase::Replaying { until, crashed_at } => {
                        // Rebuild the pending queue from each served
                        // stream's journal window. Journaled seqs below
                        // the watermark were already delivered: they
                        // count as duplicates, the duplicate half of
                        // exactly-once replay.
                        cell.gpu.reset_memory();
                        let x = cell.idx;
                        for sc in streams.iter() {
                            if env.placement.target_of(sc.idx) != x {
                                continue;
                            }
                            let mut replayed = 0u64;
                            for e in sc.window() {
                                cell.queue.push_back(e);
                                cell.flow(
                                    e.stream,
                                    e.seq,
                                    "replayed",
                                    obs::FlowPhase::Step,
                                    until,
                                    Vec::new,
                                );
                                replayed += 1;
                            }
                            cell.metrics.replay_duplicates +=
                                sc.state.journal.len() as u64 - replayed;
                        }
                        cell.metrics.recoveries += 1;
                        cell.metrics.recovery_seconds.record(until - crashed_at);
                        cell.last_activity = cell.last_activity.max(until);
                        let restored = obs::ArgValue::U64(cell.queue.len() as u64);
                        cell.span(
                            crashed_at,
                            until,
                            obs::SpanCategory::Recovery,
                            "recovery",
                            vec![("restored", restored)],
                        );
                    }
                    Phase::Checkpointing { until, started } => {
                        let r = env.recovery.expect("checkpointing implies fault tolerance");
                        let x = cell.idx;
                        for sc in streams.iter_mut() {
                            if env.placement.target_of(sc.idx) == x {
                                sc.state.checkpoint(r.snapshot_retention);
                            }
                        }
                        cell.metrics.checkpoints += 1;
                        cell.next_ckpt = until + r.checkpoint_interval;
                        let cat = obs::SpanCategory::Checkpoint;
                        cell.span(started, until, cat, "checkpoint", vec![]);
                    }
                    Phase::Idle => unreachable!("idle phases have no events"),
                }
            }
        }

        // ---- Wake and checkpoint-edge activations. Both are exact
        // event times the epoch group itself scheduled, so the comparisons
        // fire identically no matter how the epoch groups are partitioned.
        for cell in shards.iter_mut() {
            if cell.wake == Some(now) {
                cell.active = true;
                cell.wake = None;
            }
            if env.recovery.is_some()
                && matches!(cell.phase, Phase::Idle)
                && cell.next_ckpt == now
                && cell.next_ckpt < env.cfg.duration
            {
                cell.active = true;
            }
        }
    }

    /// Checkpoint starts, deadline shedding and batch dispatch for every
    /// cell activated at the current instant.
    fn post(&mut self, env: &EpochEnv) {
        let EpochGroup {
            now,
            shards,
            streams,
        } = self;
        let now = *now;
        let engine = MatchEngine::default();
        for cell in shards.iter_mut() {
            if !cell.active {
                continue;
            }
            cell.active = false;
            let x = cell.idx;

            // ---- Start a periodic checkpoint on an idle shard (only
            // while arrivals still flow; the drain tail never pauses
            // for a snapshot it won't need).
            if let Some(r) = env.recovery {
                if now < env.cfg.duration
                    && matches!(cell.phase, Phase::Idle)
                    && now >= cell.next_ckpt
                {
                    let serves_traffic = streams
                        .iter()
                        .any(|sc| env.placement.target_of(sc.idx) == x && sc.rate > 0.0);
                    if serves_traffic {
                        cell.phase = Phase::Checkpointing {
                            until: now + r.checkpoint_cost,
                            started: now,
                        };
                    }
                }
            }
            if !matches!(cell.phase, Phase::Idle) {
                continue;
            }

            // ---- Graceful degradation: in shedding mode, drop queued
            // arrivals past the deadline oldest-first. A shed entry
            // advances the commit watermark like a delivery (it is
            // durable — replay never resurrects it) but counts in
            // `overflow.shed`, not `matched`.
            if env.shedding[x] {
                let mut shed_now = 0u64;
                while let Some(front) = cell.queue.front().copied() {
                    if now - front.arrived <= env.shed_deadline {
                        break;
                    }
                    cell.queue.pop_front();
                    let sp = spos(streams, front.stream);
                    let st = &mut streams[sp].state;
                    if front.seq >= st.committed {
                        debug_assert_eq!(front.seq, st.committed);
                        st.committed = front.seq + 1;
                    }
                    streams[sp].shed_n += 1;
                    shed_now += 1;
                    let end = obs::FlowPhase::End;
                    cell.flow(front.stream, front.seq, "shed", end, now, Vec::new);
                }
                if shed_now > 0 {
                    cell.metrics.overflow.shed += shed_now;
                    let count = vec![("count", obs::ArgValue::U64(shed_now))];
                    cell.instant(now, obs::SpanCategory::Shed, "shed", count);
                }
            }

            let pending = cell.queue.len();
            let feeds = streams.iter().any(|sc| {
                env.placement.target_of(sc.idx) == x
                    && sc.rate > 0.0
                    && sc.seen < sc.pattern.due(sc.rate, env.cfg.duration)
            });
            if pending == 0 && !feeds {
                cell.wake = None;
                continue;
            }
            cell.metrics.queue_depth.record(pending as f64);

            if pending < env.threshold {
                // Aggregate: sleep until enough arrivals are due to
                // fill the threshold, or drain the tail at the end.
                let wake = fill_wake(streams, env.placement, x, env.threshold - pending);
                match wake {
                    Some(w) if w <= env.cfg.duration => {
                        cell.wake = Some(w);
                        continue;
                    }
                    _ => {
                        if pending == 0 {
                            cell.wake = None;
                            continue;
                        }
                    }
                }
            }
            if now >= env.cfg.duration && !env.cfg.drain {
                cell.wake = None;
                continue;
            }

            // ---- Dispatch.
            cell.wake = None;
            let batch = pending.min(env.cfg.max_batch);
            let mut entries = Vec::with_capacity(batch);
            for _ in 0..batch {
                entries.push(cell.queue.pop_front().expect("pending counted"));
            }
            let msgs: Vec<Envelope> = entries
                .iter()
                .map(|e| {
                    let pool = streams[spos(streams, e.stream)].msgs;
                    pool[e.seq as usize % pool.len()]
                })
                .collect();
            let reqs: Vec<RecvRequest> = msgs
                .iter()
                .map(|m| RecvRequest::exact(m.src, m.tag, m.comm))
                .collect();

            cell.flush_spills();
            // Pin the recorder to the service clock so the launch spans
            // the engine records start at the dispatch instant, and span
            // the batch's accumulation time.
            if let Some(rec) = cell.gpu.obs.as_mut() {
                rec.set_now_ns(ns(now));
            }
            let oldest = entries.first().map_or(now, |e| e.arrived);
            cell.span(
                oldest.min(now),
                now,
                obs::SpanCategory::BatchAdmission,
                "batch",
                vec![
                    ("batch", obs::ArgValue::U64(batch as u64)),
                    ("pending", obs::ArgValue::U64(pending as u64)),
                ],
            );
            for e in &entries {
                let step = obs::FlowPhase::Step;
                cell.flow(e.stream, e.seq, "dispatched", step, now, Vec::new);
            }

            // The shard's resident device: reclaim the arena, not the
            // device.
            let choice = cell.active_choice;
            cell.gpu.reset_memory();
            let report = engine
                .match_with(cell.gpu, choice, &msgs, &reqs)
                .expect("no wildcards in service traffic");
            debug_assert_eq!(report.matches as usize, batch);
            let factor = if now < cell.slow_until {
                cell.slow_factor
            } else {
                1.0
            };
            let service = report.seconds * factor;
            cell.phase = Phase::Busy(Box::new(InFlight {
                until: now + service,
                entries,
                report,
                service,
            }));
        }
    }

    /// Earliest pending local event strictly after which nothing can
    /// happen in this epoch group without outside input.
    fn next_event(&self, env: &EpochEnv) -> f64 {
        let mut next = f64::INFINITY;
        for cell in &self.shards {
            if let Some(t) = cell.phase.next_event() {
                next = next.min(t);
            }
            if cell.fault_idx < cell.faults.len() {
                next = next.min(cell.faults[cell.fault_idx].at);
            }
            if let Some(w) = cell.wake {
                next = next.min(w);
            }
            if env.recovery.is_some()
                && self.now < env.cfg.duration
                && matches!(cell.phase, Phase::Idle)
                && cell.next_ckpt > self.now
                && cell.next_ckpt < env.cfg.duration
            {
                next = next.min(cell.next_ckpt);
            }
        }
        if env.cfg.drain && env.cfg.duration > self.now {
            // Drain mode: every epoch group visits `duration` — the final
            // admission sweep and the universal tail-dispatch event.
            next = next.min(env.cfg.duration);
        }
        next
    }

    /// Advance through local events up to (and including, via the final
    /// boundary) `until`. With `until = ∞` the epoch group runs to local
    /// completion.
    fn advance(&mut self, env: &EpochEnv, until: f64) {
        loop {
            self.post(env);
            let next = self.next_event(env);
            if next.is_finite() && next > self.now && next < until {
                self.now = next;
                self.boundary(env);
                continue;
            }
            if until.is_finite() && until > self.now {
                self.now = until;
                self.boundary(env);
            }
            break;
        }
    }
}

fn uf_find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

fn uf_union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (uf_find(parent, a), uf_find(parent, b));
    if ra != rb {
        // Union by minimum so every root is its group's smallest member
        // — groups come out ordered and internally ascending for free.
        parent[ra.max(rb)] = ra.min(rb);
    }
}

/// Partition shards and stream slots into groups closed under every
/// cross-shard interaction that can happen between barriers: a stream's
/// state is written by the shard currently serving it (admission,
/// commits, checkpoints, shedding) and read by its home shard (recovery
/// scans), and queued or in-flight entries tie their stream to the
/// holding shard. Shards in different groups share nothing until the
/// next barrier, so their epoch groups may run on different threads.
///
/// Nodes `0..n` are the shards of `cells`, `n..n + m` the `m` stream
/// slots; each returned group is `(shards, streams)`, both ascending,
/// groups ordered by their smallest shard.
fn conflict_groups(
    m: usize,
    placement: &ShardPlacement,
    cells: &[ShardCell],
) -> Vec<(Vec<usize>, Vec<usize>)> {
    let n = cells.len();
    let mut parent: Vec<usize> = (0..n + m).collect();
    for j in 0..m {
        let h = placement.home_of_slot(j);
        uf_union(&mut parent, h, placement.redirect_of(h));
        uf_union(&mut parent, n + j, placement.target_of(j));
        uf_union(&mut parent, n + j, h);
    }
    for cell in cells {
        let x = cell.idx;
        let inflight = cell.phase.inflight().map(|f| f.entries.as_slice());
        for e in cell.queue.iter().chain(inflight.unwrap_or_default()) {
            uf_union(&mut parent, x, n + e.stream);
        }
    }
    // Every stream node is unioned with a shard node and unions pick
    // the minimum as root, so group roots are always shard indices.
    let mut groups: Vec<(Vec<usize>, Vec<usize>)> = vec![(Vec::new(), Vec::new()); n];
    for i in 0..n + m {
        let r = uf_find(&mut parent, i);
        debug_assert!(r < n, "group roots are shards");
        if i < n {
            groups[r].0.push(i);
        } else {
            groups[r].1.push(i - n);
        }
    }
    groups.retain(|(s, _)| !s.is_empty());
    groups
}

/// One supervisor health tick at simulated time `tick`: liveness
/// bookkeeping, failover of a down shard's streams to the healthiest
/// responsive peer, and handback once a home shard has recovered and
/// its stand-in has drained the inherited stream. Runs at the
/// coordinator with every cell home, so each decision sees one
/// consistent barrier state under either scheduler.
fn supervisor_tick(
    sup: &mut Supervisor,
    tick: f64,
    placement: &mut ShardPlacement,
    cells: &mut [ShardCell],
    streams: &mut [StreamCell],
    capacity: usize,
) {
    let n = cells.len();
    let m = streams.len();
    for x in 0..n {
        let unreachable = cells[x].partitioned_until > tick;
        if !unreachable {
            sup.note_reachable(x);
        }
        if cells[x].reachable_at(tick) {
            sup.note_up(x);
            // Observe the same backlog admission gates on (queued plus
            // in-flight), else a pegged shard alternating full queue /
            // full batch never looks overloaded.
            sup.observe_depth(x, cells[x].backlog(), capacity);
            continue;
        }
        // A partition is diagnosed apart from a crash or hang: the
        // shard is healthy, the path is cut, so the grace period
        // applies but crash-loop detection never shortcuts it.
        let fail_over = if unreachable {
            sup.note_unreachable(x, tick)
        } else {
            sup.note_down(x, tick)
        };
        if !fail_over {
            continue;
        }
        // Fail the down shard's streams over to the healthiest
        // responsive peer.
        let moved: Vec<usize> = (0..m).filter(|&s| placement.target_of(s) == x).collect();
        if moved.is_empty() {
            continue;
        }
        let target = (0..n)
            .filter(|&u| u != x && cells[u].reachable_at(tick))
            .min_by_key(|&u| (cells[u].backlog(), u));
        let Some(t) = target else { continue };
        for s in moved {
            // Failover rewrites the slot's *home shard* redirect, the
            // temporary second hop; the durable home assignment is
            // migration's to change.
            let h = placement.home_of_slot(s);
            if t == h {
                placement.restore(h);
            } else {
                placement.redirect(h, t);
            }
            // Bump the stream's epoch as it changes hands: any copy the
            // old owner still holds in flight (a hung batch, a
            // partitioned shard that kept servicing) commits under the
            // stale epoch and is fenced at the commit point, so late
            // work can never double-commit against the new owner.
            streams[s].epoch += 1;
            let transferred = hand_off(cells, &streams[s], x, t, tick, "failover");
            let home = cells[h].home_choice;
            let tc = &mut cells[t];
            // Inherited streams keep the ordering their home engine
            // promised: fall back to the stricter discipline while
            // serving them.
            if home.strictness() > tc.active_choice.strictness() {
                tc.active_choice = home;
                tc.metrics.engine_fallbacks += 1;
            }
            tc.instant(
                tick,
                obs::SpanCategory::Failover,
                "failover",
                vec![
                    ("stream", obs::ArgValue::U64(s as u64)),
                    ("from", obs::ArgValue::U64(x as u64)),
                    ("transferred", obs::ArgValue::U64(transferred)),
                ],
            );
        }
        cells[x].metrics.failovers_out += 1;
        cells[t].metrics.failovers_in += 1;
    }
    // Handback: once a home shard is responsive again and its failover
    // target has drained the inherited streams, route them home. A
    // partitioned home must heal first, or fresh admissions would land
    // behind the cut.
    for h in 0..n {
        let t = placement.redirect_of(h);
        if t == h || !cells[h].reachable_at(tick) {
            continue;
        }
        let tc = &cells[t];
        // A crashed stand-in looks drained — the crash cleared its
        // queue — but it still owns the inherited streams' un-replayed
        // journal windows, and its replay skips any stream routed away
        // in the meantime. Hold the handback until the recovery has
        // rebuilt and re-committed them.
        let draining = tc.phase.dark()
            || (0..m).any(|s| {
                placement.home_of_slot(s) == h
                    && (tc.queue.iter().any(|e| e.stream == s) || tc.phase.holds_stream(s))
            });
        if draining {
            continue;
        }
        placement.restore(h);
        let tc = &mut cells[t];
        if !(0..m).any(|u| placement.home_of_slot(u) != t && placement.target_of(u) == t) {
            tc.active_choice = tc.home_choice;
        }
        let stream = vec![("stream", obs::ArgValue::U64(h as u64))];
        tc.instant(tick, obs::SpanCategory::Failover, "handback", stream);
    }
}

/// One reshard planner barrier at simulated time `tick`: execute (or
/// abort) the in-flight migration, then plan the next one from
/// barrier-visible backlogs. Runs at the coordinator with every cell
/// home, like [`supervisor_tick`]. Returns `true` when routing changed
/// and every cell must re-evaluate dispatch.
///
/// Execution is a drain-transfer-handback around [`hand_off`], the
/// failover journal-window transfer: the source's undispatched copies
/// drop, the window moves to the target, then the slot's durable home
/// is rebound via [`ShardPlacement::migrate`] (`DESIGN.md` §13).
fn reshard_tick(
    planner: &mut ReshardPlanner,
    tick: f64,
    placement: &mut ShardPlacement,
    cells: &mut [ShardCell],
    streams: &[StreamCell],
) -> bool {
    let m = streams.len();
    if let Some(plan) = planner.pending {
        let PlannedMigration {
            slot,
            from,
            to,
            planned_at,
        } = plan;
        let routed_clean = placement.redirect_of(from) == from && placement.redirect_of(to) == to;
        if !cells[from].reachable_at(tick) || !cells[to].reachable_at(tick) || !routed_clean {
            // A crash, hang or failover intervened between plan and
            // execution. Nothing has moved yet — routing only changes
            // at the migrate() below — so aborting is a pure
            // bookkeeping rollback.
            planner.pending = None;
            planner.aborted += 1;
            cells[from].instant(
                tick,
                obs::SpanCategory::Migration,
                "migration_abort",
                vec![
                    ("slot", obs::ArgValue::U64(slot as u64)),
                    ("to", obs::ArgValue::U64(to as u64)),
                ],
            );
            return false;
        }
        if cells[from].phase.holds_stream(slot) {
            // The source still has the slot's entries on device; they
            // commit at batch end. Wait for the next barrier.
            return false;
        }
        let queued = cells[from].queue.len();
        let transferred = hand_off(cells, &streams[slot], from, to, tick, "migrated");
        let drained = (queued - cells[from].queue.len()) as u64;
        let fc = &mut cells[from];
        fc.metrics.migrations_out += 1;
        fc.instant(
            tick,
            obs::SpanCategory::Migration,
            "migration_drain",
            vec![
                ("slot", obs::ArgValue::U64(slot as u64)),
                ("drained", obs::ArgValue::U64(drained)),
            ],
        );
        let tc = &mut cells[to];
        tc.metrics.migrations_in += 1;
        tc.span(
            planned_at,
            tick,
            obs::SpanCategory::Migration,
            "migration_transfer",
            vec![
                ("slot", obs::ArgValue::U64(slot as u64)),
                ("from", obs::ArgValue::U64(from as u64)),
                ("to", obs::ArgValue::U64(to as u64)),
                ("transferred", obs::ArgValue::U64(transferred)),
            ],
        );
        placement.migrate(slot, to);
        cells[from].instant(
            tick,
            obs::SpanCategory::Migration,
            "migration_handback",
            vec![
                ("slot", obs::ArgValue::U64(slot as u64)),
                ("to", obs::ArgValue::U64(to as u64)),
            ],
        );
        planner.pending = None;
        planner.completed += 1;
        return true;
    }
    if !planner.may_plan() {
        return false;
    }
    // ---- Plan: hot/cold from barrier-visible backlogs; shards that
    // are down or entangled in a failover redirect are ineligible.
    let backlogs: Vec<Option<usize>> = cells
        .iter()
        .map(|c| {
            (c.reachable_at(tick) && placement.redirect_of(c.idx) == c.idx).then(|| c.backlog())
        })
        .collect();
    let Some((hot, cold)) = planner.pick(&backlogs) else {
        return false;
    };
    // Move the lowest live slot homed on the hot shard.
    let slot = (0..m).find(|&j| placement.home_of_slot(j) == hot && streams[j].rate > 0.0);
    let Some(slot) = slot else { return false };
    planner.pending = Some(PlannedMigration {
        slot,
        from: hot,
        to: cold,
        planned_at: tick,
    });
    cells[hot].instant(
        tick,
        obs::SpanCategory::Migration,
        "migration_plan",
        vec![
            ("slot", obs::ArgValue::U64(slot as u64)),
            ("to", obs::ArgValue::U64(cold as u64)),
        ],
    );
    false
}

/// Close one scheduler epoch for the wall profiler: the barrier-wait
/// bucket is the residual `epoch total − worker-measured − supervisor`,
/// so the four buckets partition each shard's measured epoch total
/// exactly, by construction. Runs on the coordinator after every worker
/// thread has joined (their relaxed lane adds are ordered before these
/// reads by the join).
fn close_wall_epoch(
    wp: Option<&obs::wallprof::WallProfiler>,
    pre_lanes: &[[u64; 4]],
    epoch_wall_start: std::time::Instant,
    epoch_offset_ns: u64,
    epoch: u64,
    sup_ns: u64,
) {
    use obs::wallprof::WallBucket;
    let Some(wp) = wp else { return };
    let total = epoch_wall_start.elapsed().as_nanos() as u64;
    for (x, before) in pre_lanes.iter().enumerate() {
        let after = wp.bucket_ns(x);
        let compute = after[WallBucket::Compute as usize] - before[WallBucket::Compute as usize];
        let backpressure =
            after[WallBucket::Backpressure as usize] - before[WallBucket::Backpressure as usize];
        let worker = compute + backpressure;
        wp.add(x, WallBucket::SupervisorSync, sup_ns);
        let wait = total.saturating_sub(worker + sup_ns);
        wp.add(x, WallBucket::BarrierWait, wait);
        wp.note_epoch(x, total.max(worker + sup_ns));
        wp.record_epoch(
            x,
            epoch,
            epoch_offset_ns,
            [compute, wait, backpressure, sup_ns],
        );
    }
}

/// The observability hooks threaded through a scheduled run: the
/// shared span recorder (virtual clock) and the wall-clock profiler.
/// Bundled so the scheduler entry point stays a scheduling signature,
/// not an instrumentation one.
pub(crate) struct ObsHooks<'a> {
    pub(crate) sched_rec: Option<&'a obs::sync::SharedSpanRecorder>,
    pub(crate) wallprof: Option<&'a obs::wallprof::WallProfiler>,
}

/// Per-run knobs threaded from the service into a scheduled run: the
/// shared queue fill limits, the optional reshard policy and whether to
/// record per-stream completion sequences. Bundled for the same reason
/// as [`ObsHooks`].
pub(crate) struct RunKnobs {
    pub(crate) fill: FillLimits,
    pub(crate) reshard: Option<ReshardPolicy>,
    pub(crate) record_completions: bool,
}

/// Per-stream accounting handed back for tenant aggregation, in
/// slot-index order.
pub(crate) struct StreamOutcome {
    pub(crate) tenant: u32,
    pub(crate) arrivals: u64,
    pub(crate) admitted: u64,
    pub(crate) spilled: u64,
    pub(crate) shed: u64,
    pub(crate) matched: u64,
}

/// Everything the coordinator hands back to the service: finished
/// per-shard metrics in shard order, `completions` and `streams` in
/// slot-index order.
pub(crate) struct SchedOutcome {
    pub(crate) metrics: Vec<ShardMetrics>,
    pub(crate) completions: Option<Vec<Vec<u64>>>,
    pub(crate) streams: Vec<StreamOutcome>,
    /// The last simulated instant any shard was active.
    pub(crate) elapsed: f64,
    /// Planned migrations aborted (zero without resharding).
    pub(crate) aborted_migrations: u64,
}

/// Drive a full service run under the configured [`Scheduler`].
///
/// The coordinator owns every shard/stream cell between epochs. Each
/// epoch it picks a conservative horizon (the next supervisor or
/// reshard barrier), partitions the cells into conflict groups, and advances
/// each epoch group to the horizon — inline under
/// [`Scheduler::GlobalClock`], on one scoped OS thread per group under
/// [`Scheduler::ThreadPerShard`]. At the barrier it applies supervisor
/// work (crash notifications, health ticks, failover/handback) with
/// every cell home, then loops. Without a supervisor there are no
/// barriers: the single epoch runs to completion.
pub(crate) fn run_scheduled(
    cfg: &ShardedServiceConfig,
    placement: &mut ShardPlacement,
    service_shards: &mut [ServiceShard],
    service_streams: &[ServiceStream],
    fault_tolerance: Option<&FaultTolerance>,
    knobs: RunKnobs,
    hooks: ObsHooks<'_>,
) -> SchedOutcome {
    let ObsHooks {
        sched_rec,
        wallprof,
    } = hooks;
    let RunKnobs {
        fill,
        reshard,
        record_completions,
    } = knobs;
    let n = service_shards.len();
    let m = service_streams.len();
    let capacity = cfg.queue_capacity.max(cfg.max_batch);
    let threshold = cfg.batch_threshold.clamp(1, cfg.max_batch);
    let recovery: Option<RecoveryConfig> = fault_tolerance.map(|f| f.recovery);
    let mut supervisor: Option<Supervisor> = fault_tolerance
        .and_then(|f| f.supervisor.as_ref())
        .map(|&sc| Supervisor::new(n, sc));
    let mut planner: Option<ReshardPlanner> = reshard.map(ReshardPlanner::new);
    // Aborts counted by a planner that retired before the run ended.
    let mut retired_aborts = 0u64;
    let mut sup_tick: Option<f64> = supervisor
        .as_ref()
        .map(|s| s.config().health_check_interval);
    let shed_deadline = supervisor
        .as_ref()
        .map_or(f64::INFINITY, |s| s.config().shed_deadline);

    let mut fault_lists: Vec<Vec<FaultEvent>> = vec![Vec::new(); n];
    if let Some(f) = fault_tolerance {
        for ev in f.plan.events() {
            fault_lists[ev.shard].push(*ev);
        }
    }

    // Between epochs the coordinator owns every cell, each vector
    // sorted by index, so `shard_cells[x].idx == x`.
    let mut shard_cells: Vec<ShardCell> = service_shards
        .iter_mut()
        .zip(fault_lists)
        .enumerate()
        .map(|(idx, (sh, faults))| ShardCell {
            idx,
            gpu: &mut sh.gpu,
            queue: VecDeque::new(),
            phase: Phase::Idle,
            metrics: ShardMetrics::new(idx, sh.choice.label()),
            last_activity: 0.0,
            last_spill: f64::NEG_INFINITY,
            slow_until: f64::NEG_INFINITY,
            slow_factor: 1.0,
            partitioned_until: f64::NEG_INFINITY,
            next_ckpt: recovery.map_or(f64::INFINITY, |r| r.checkpoint_interval),
            active_choice: sh.choice,
            home_choice: sh.choice,
            faults,
            fault_idx: 0,
            pend_spill: 0,
            pend_spill_t: 0.0,
            pend_shed: 0,
            pend_shed_t: 0.0,
            wake: None,
            // Every shard evaluates dispatch once at t = 0.
            active: true,
            sampler: obs::FlowSampler::new(cfg.flow_sample_every, cfg.seed),
        })
        .collect();
    let mut stream_cells: Vec<StreamCell> = service_streams
        .iter()
        .enumerate()
        .map(|(idx, st)| StreamCell {
            idx,
            msgs: &st.msgs,
            rate: st.rate,
            state: StreamState::default(),
            seen: 0,
            epoch: 0,
            completions: record_completions.then(Vec::new),
            pattern: st.pattern,
            tenant: st.tenant,
            // Each run starts from a full, fresh bucket.
            qos: st.qos.clone(),
            spilled_n: 0,
            shed_n: 0,
            matched_n: 0,
        })
        .collect();

    let mut crash_seen = vec![0u64; n];
    let mut t_now = 0.0f64;
    let mut first = true;
    let run_start = std::time::Instant::now();
    let mut epoch_idx = 0u64;

    loop {
        let epoch_offset_ns = run_start.elapsed().as_nanos() as u64;
        let epoch_wall_start = std::time::Instant::now();
        // Lane snapshot the residual-bucket construction diffs against
        // at the end of the epoch.
        let pre_lanes: Vec<[u64; 4]> = wallprof
            .map(|wp| (0..n).map(|x| wp.bucket_ns(x)).collect())
            .unwrap_or_default();
        // ---- Liveness, evaluated at the barrier: is there anything
        // left for another epoch to do?
        let arrivals_remain = stream_cells
            .iter()
            .any(|c| c.rate > 0.0 && c.seen < c.pattern.due(c.rate, cfg.duration));
        let redirect_active = (0..n).any(|h| placement.redirect_of(h) != h);
        let queues_nonempty = shard_cells.iter().any(|c| !c.queue.is_empty());
        let phases_live = shard_cells.iter().any(|c| !matches!(c.phase, Phase::Idle));
        let work_live = t_now < cfg.duration
            || phases_live
            || (cfg.drain && (redirect_active || arrivals_remain || queues_nonempty));
        let next_fault = shard_cells
            .iter()
            .filter_map(|c| c.faults.get(c.fault_idx).map(|ev| ev.at))
            .fold(f64::INFINITY, f64::min);

        // ---- Epoch horizon: the next barrier (supervisor health tick
        // or reshard planner tick) while work is live; the next fault
        // when the supervisor is merely waiting for one; unbounded
        // otherwise (the epoch runs to completion). Every epoch group
        // starts at `t_now` and ends exactly at the horizon, so no group
        // lags another and the barrier itself is the conservative
        // bound: nothing crosses groups before it.
        let next_barrier = sup_tick
            .unwrap_or(f64::INFINITY)
            .min(planner.as_ref().map_or(f64::INFINITY, |p| p.next_tick));
        let horizon = match (supervisor.is_some() || planner.is_some(), work_live) {
            (true, true) => next_barrier,
            (true, false) => next_fault,
            (false, _) => f64::INFINITY,
        };

        // ---- Partition into conflict groups and advance each epoch group.
        let shedding: Vec<bool> = (0..n)
            .map(|x| supervisor.as_ref().is_some_and(|s| s.is_shedding(x)))
            .collect();
        let env = EpochEnv {
            cfg: *cfg,
            capacity,
            threshold,
            recovery,
            placement,
            shedding: &shedding,
            shed_deadline,
            fill,
        };
        let groups = match cfg.scheduler {
            Scheduler::GlobalClock => vec![((0..n).collect(), (0..m).collect())],
            Scheduler::ThreadPerShard => conflict_groups(m, env.placement, &shard_cells),
        };
        // Deal the cells out in index order, so each group's cells stay
        // ascending.
        let mut group_of = vec![0usize; n + m];
        for (g, (gs, gt)) in groups.iter().enumerate() {
            for &x in gs {
                group_of[x] = g;
            }
            for &j in gt {
                group_of[n + j] = g;
            }
        }
        let mut epoch_groups: Vec<EpochGroup> = groups
            .iter()
            .map(|_| EpochGroup {
                now: t_now,
                shards: Vec::new(),
                streams: Vec::new(),
            })
            .collect();
        for c in shard_cells.drain(..) {
            epoch_groups[group_of[c.idx]].shards.push(c);
        }
        for c in stream_cells.drain(..) {
            epoch_groups[group_of[n + c.idx]].streams.push(c);
        }

        // Advance one epoch group to the horizon. Wall attribution: its
        // compute time is split evenly over its shards (relaxed adds —
        // no effect on the simulated state).
        let run_group = |group: &mut EpochGroup| {
            let t0 = std::time::Instant::now();
            if first {
                group.boundary(&env);
            }
            group.advance(&env, horizon);
            if let Some(wp) = wallprof {
                let per = t0.elapsed().as_nanos() as u64 / group.shards.len() as u64;
                for c in &group.shards {
                    wp.add(c.idx, obs::wallprof::WallBucket::Compute, per);
                }
            }
        };
        let threaded = matches!(cfg.scheduler, Scheduler::ThreadPerShard) && epoch_groups.len() > 1;
        if threaded {
            let run_group = &run_group;
            epoch_groups = crossbeam::scope(|scope| {
                let (tx, rx) = crossbeam::channel::bounded(epoch_groups.len());
                for (gi, mut group) in epoch_groups.drain(..).enumerate() {
                    let tx = tx.clone();
                    scope.spawn(move |_| {
                        run_group(&mut group);
                        let shard_ids: Vec<usize> = group.shards.iter().map(|c| c.idx).collect();
                        let s0 = std::time::Instant::now();
                        if tx.send((gi, group)).is_err() {
                            unreachable!("coordinator holds the receiver until all sends land");
                        }
                        if let Some(wp) = wallprof {
                            let per = s0.elapsed().as_nanos() as u64 / shard_ids.len() as u64;
                            for &i in &shard_ids {
                                wp.add(i, obs::wallprof::WallBucket::Backpressure, per);
                            }
                        }
                    });
                }
                drop(tx);
                let mut done: Vec<(usize, EpochGroup)> = rx.iter().collect();
                done.sort_by_key(|&(gi, _)| gi);
                done.into_iter().map(|(_, g)| g).collect()
            })
            .expect("no panics in shard epoch groups");
        } else {
            epoch_groups.iter_mut().for_each(run_group);
        }
        first = false;

        // ---- Reassemble in index order.
        let mut t_end = t_now;
        for EpochGroup {
            now,
            shards,
            streams,
        } in epoch_groups
        {
            t_end = t_end.max(now);
            shard_cells.extend(shards);
            stream_cells.extend(streams);
        }
        shard_cells.sort_unstable_by_key(|c| c.idx);
        stream_cells.sort_unstable_by_key(|c| c.idx);
        if let Some(rec) = sched_rec {
            let groups_n = groups.len() as u64;
            let threads_n = if threaded { groups_n } else { 1 };
            rec.with(|r| {
                let (t0, t1) = (ns(t_now), ns(t_end));
                r.record_complete(
                    obs::SpanCategory::Epoch,
                    "epoch",
                    t0,
                    t1.saturating_sub(t0),
                    vec![
                        ("groups", obs::ArgValue::U64(groups_n)),
                        ("threads", obs::ArgValue::U64(threads_n)),
                    ],
                );
            });
        }
        if horizon.is_infinite() {
            close_wall_epoch(
                wallprof,
                &pre_lanes,
                epoch_wall_start,
                epoch_offset_ns,
                epoch_idx,
                0,
            );
            break;
        }
        t_now = horizon;

        // ---- Supervisor barrier: crash deltas first (so a health tick
        // always knows about every crash before it), then every health
        // tick due by now — a fault jump can owe several — and wake
        // every cell if any fired (shedding state may have changed
        // anywhere).
        let sup_start = std::time::Instant::now();
        let mut wake_all = false;
        if let Some(sup) = supervisor.as_mut() {
            for (x, c) in shard_cells.iter().enumerate() {
                for _ in crash_seen[x]..c.metrics.crashes {
                    sup.note_crash(x);
                }
                crash_seen[x] = c.metrics.crashes;
            }
            while let Some(tick) = sup_tick.filter(|&t| t <= t_now) {
                let cells = &mut shard_cells;
                supervisor_tick(sup, tick, placement, cells, &mut stream_cells, capacity);
                sup_tick = Some(tick + sup.config().health_check_interval);
                wake_all = true;
            }
        }
        // Reshard planner barriers run after supervisor work at the
        // same instant: failover rewires first, so the planner sees
        // (and aborts on) any redirect it would race with.
        if let Some(pl) = planner.as_mut() {
            while pl.next_tick <= t_now {
                let tick = pl.next_tick;
                if reshard_tick(pl, tick, placement, &mut shard_cells, &stream_cells) {
                    // Routing changed: every cell re-evaluates dispatch.
                    wake_all = true;
                }
                pl.next_tick += pl.policy.tick;
            }
            if pl.pending.is_none() && !pl.may_plan() {
                // Migration budget exhausted: stop scheduling planner
                // barriers so the final epoch can run to completion.
                retired_aborts = pl.aborted;
                planner = None;
            }
        }
        if wake_all {
            for c in shard_cells.iter_mut() {
                c.active = true;
            }
        }
        close_wall_epoch(
            wallprof,
            &pre_lanes,
            epoch_wall_start,
            epoch_offset_ns,
            epoch_idx,
            sup_start.elapsed().as_nanos() as u64,
        );
        epoch_idx += 1;
    }

    // ---- Finish each shard's metrics and hand everything back.
    let mut elapsed = 0.0f64;
    let metrics = shard_cells
        .into_iter()
        .map(|mut c| {
            c.flush_spills();
            let backlog = c.backlog() as u64;
            let m = &mut c.metrics;
            m.utilisation = if c.last_activity > 0.0 {
                (m.busy_seconds / c.last_activity).min(1.0)
            } else {
                0.0
            };
            m.saturated = (backlog > 2 * cfg.max_batch as u64
                && backlog as f64 > 0.05 * m.arrivals as f64)
                || c.last_spill >= 0.9 * cfg.duration;
            m.trace_dropped = c.gpu.obs.as_ref().map_or(0, |r| r.dropped());
            elapsed = elapsed.max(c.last_activity);
            c.metrics
        })
        .collect();
    let mut completions = record_completions.then(|| Vec::with_capacity(m));
    let streams = stream_cells
        .into_iter()
        .map(|sc| {
            if let Some(comps) = completions.as_mut() {
                comps.push(sc.completions.unwrap_or_default());
            }
            StreamOutcome {
                tenant: sc.tenant,
                arrivals: sc.seen,
                admitted: sc.state.admitted,
                spilled: sc.spilled_n,
                shed: sc.shed_n,
                matched: sc.matched_n,
            }
        })
        .collect();
    SchedOutcome {
        metrics,
        completions,
        streams,
        elapsed,
        aborted_migrations: planner.map_or(retired_aborts, |p| p.aborted),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell_fixture(gpus: &mut [Gpu]) -> Vec<ShardCell<'_>> {
        gpus.iter_mut()
            .enumerate()
            .map(|(idx, gpu)| ShardCell {
                idx,
                gpu,
                queue: VecDeque::new(),
                phase: Phase::Idle,
                metrics: ShardMetrics::new(idx, "matrix"),
                last_activity: 0.0,
                last_spill: f64::NEG_INFINITY,
                slow_until: f64::NEG_INFINITY,
                slow_factor: 1.0,
                partitioned_until: f64::NEG_INFINITY,
                next_ckpt: f64::INFINITY,
                active_choice: EngineChoice::Matrix,
                home_choice: EngineChoice::Matrix,
                faults: Vec::new(),
                fault_idx: 0,
                pend_spill: 0,
                pend_spill_t: 0.0,
                pend_shed: 0,
                pend_shed_t: 0.0,
                wake: None,
                active: false,
                sampler: obs::FlowSampler::new(1, 0),
            })
            .collect()
    }

    #[test]
    fn identity_placement_yields_singleton_groups() {
        let mut gpus: Vec<Gpu> = (0..3)
            .map(|_| Gpu::new(simt_sim::GpuGeneration::PascalGtx1080))
            .collect();
        let cells = cell_fixture(&mut gpus);
        let placement = ShardPlacement::hashed(3);
        let groups = conflict_groups(3, &placement, &cells);
        assert_eq!(
            groups,
            vec![(vec![0], vec![0]), (vec![1], vec![1]), (vec![2], vec![2])]
        );
    }

    #[test]
    fn redirects_and_foreign_queue_entries_merge_groups() {
        let mut gpus: Vec<Gpu> = (0..4)
            .map(|_| Gpu::new(simt_sim::GpuGeneration::PascalGtx1080))
            .collect();
        let mut cells = cell_fixture(&mut gpus);
        let mut placement = ShardPlacement::hashed(4);
        // Shard 2's traffic now lands on shard 0: {0, 2} conflict.
        placement.redirect(2, 0);
        // Shard 3 still holds an undrained entry of stream 1: {1, 3}.
        cells[3].queue.push_back(QEntry {
            stream: 1,
            seq: 0,
            arrived: 0.0,
            epoch: 0,
        });
        let groups = conflict_groups(4, &placement, &cells);
        assert_eq!(
            groups,
            vec![(vec![0, 2], vec![0, 2]), (vec![1, 3], vec![1, 3])]
        );
    }

    #[test]
    fn migrated_slots_group_with_their_new_home() {
        let mut gpus: Vec<Gpu> = (0..3)
            .map(|_| Gpu::new(simt_sim::GpuGeneration::PascalGtx1080))
            .collect();
        let cells = cell_fixture(&mut gpus);
        // Four slots over three shards; slot 3 migrated from 0 to 2.
        let mut placement = ShardPlacement::with_assignments(3, vec![0, 1, 2, 0]);
        placement.migrate(3, 2);
        let groups = conflict_groups(4, &placement, &cells);
        assert_eq!(
            groups,
            vec![
                (vec![0], vec![0]),
                (vec![1], vec![1]),
                (vec![2], vec![2, 3])
            ]
        );
    }

    #[test]
    fn scheduler_defaults_to_the_global_clock() {
        assert_eq!(Scheduler::default(), Scheduler::GlobalClock);
    }

    /// Run two streams over two matrix shards until every arrival has
    /// committed; returns each stream's watermarks and journal.
    fn drained_streams(recovery: Option<RecoveryConfig>) -> Vec<StreamState> {
        let mut gpus: Vec<Gpu> = (0..2)
            .map(|_| Gpu::new(simt_sim::GpuGeneration::PascalGtx1080))
            .collect();
        let mut shards = cell_fixture(&mut gpus);
        for c in &mut shards {
            c.next_ckpt = recovery.map_or(f64::INFINITY, |r| r.checkpoint_interval);
        }
        let cfg = ShardedServiceConfig {
            shards: 2,
            arrival_rate: 2.0e6,
            duration: 1e-3,
            drain: true,
            ..Default::default()
        };
        let msgs: Vec<Envelope> = (0..64).map(|src| Envelope::new(src, 0, 0)).collect();
        let streams = (0..2)
            .map(|idx| StreamCell {
                idx,
                msgs: &msgs,
                rate: cfg.arrival_rate / 2.0,
                state: StreamState::default(),
                seen: 0,
                epoch: 0,
                completions: None,
                pattern: ArrivalPattern::Uniform,
                tenant: 0,
                qos: StreamQos {
                    class: crate::tenancy::QosClass::Guaranteed,
                    bucket: None,
                },
                spilled_n: 0,
                shed_n: 0,
                matched_n: 0,
            })
            .collect();
        let placement = ShardPlacement::hashed(2);
        let env = EpochEnv {
            cfg,
            capacity: cfg.queue_capacity.max(cfg.max_batch),
            threshold: cfg.batch_threshold.clamp(1, cfg.max_batch),
            recovery,
            placement: &placement,
            shedding: &[false; 2],
            shed_deadline: f64::INFINITY,
            fill: FillLimits::default(),
        };
        let mut group = EpochGroup {
            now: 0.0,
            shards,
            streams,
        };
        group.boundary(&env);
        group.advance(&env, f64::INFINITY);
        group.streams.into_iter().map(|sc| sc.state).collect()
    }

    #[test]
    fn a_journal_without_fault_tolerance_holds_only_the_uncommitted_window() {
        for s in drained_streams(None) {
            assert!(s.admitted > 500, "the run admits its arrivals");
            assert!(
                s.journal.iter().all(|&(seq, _)| seq >= s.committed),
                "committed entries leave the journal"
            );
            assert!(s.journal.len() as u64 <= s.admitted - s.committed);
        }
        // With fault tolerance the journal still reaches back to the
        // oldest retained snapshot (seq 0 before the first), committed
        // entries included: a restore replays them.
        let tolerant = drained_streams(Some(RecoveryConfig::default()));
        for s in &tolerant {
            let floor = s.snapshots.front().map_or(0, |snap| snap.committed);
            let seqs: Vec<u64> = s.journal.iter().map(|&(seq, _)| seq).collect();
            assert_eq!(seqs, (floor..s.admitted).collect::<Vec<_>>());
            assert!(!s.snapshots.is_empty(), "the run checkpoints");
            assert!(s.journal.len() as u64 > s.admitted - s.committed);
        }
    }
}
