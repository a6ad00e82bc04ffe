//! Unified observability layer for the workspace: one span model, one
//! clock, three consumers.
//!
//! * [`SpanRecorder`] — a preallocated, bounded flight recorder of
//!   [`SpanEvent`]s. Every producer (the sharded service, the
//!   communicator router, the match engines, the simulated device) writes
//!   into a recorder through the *simulated-time* clock it carries, so a
//!   whole service run yields one coherent timeline with no wall-clock
//!   nondeterminism: the same seed produces a byte-identical trace.
//! * [`perfetto`] — renders recorders as Chrome `trace_event` JSON,
//!   loadable in `ui.perfetto.dev` or `chrome://tracing`.
//! * [`prom`] — a Prometheus text-exposition renderer (counters, gauges,
//!   histograms with cumulative `le` buckets) for metric snapshots.
//!
//! The recorder is `Option`-gated at every call site: when tracing is
//! off, producers hold `None` and the hot path performs no allocation
//! and no work beyond a branch.

#![warn(unreachable_pub)]

mod flow;
pub mod perfetto;
pub mod prom;
pub mod sync;
pub mod tracks;
pub mod wallprof;

use flow::FlowPoint;
pub use flow::{FlowId, FlowPhase, FlowSampler};

/// What a span measures. Categories become the Perfetto `cat` field, so
/// a viewer can filter one tier of the pipeline at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanCategory {
    /// Messages draining from a shard's bounded queue into a batch.
    BatchAdmission,
    /// One simulated grid launch, spanning its device-time duration.
    KernelLaunch,
    /// Functional (lane-vector) execution of a launch.
    FunctionalExec,
    /// Discrete-event timing replay of a launch.
    TimingReplay,
    /// Queue-compaction launches (the service's garbage collection).
    Compaction,
    /// Arrivals rejected by admission control.
    Spill,
    /// A matching engine servicing one batch.
    Match,
    /// A sanitizer race finding, surfaced as an instant.
    Race,
    /// A packet traversing a fabric link (data, RTS, CTS or ack),
    /// spanning departure to arrival.
    PacketFlight,
    /// A timeout-driven retransmission, surfaced as an instant on the
    /// sender's link track.
    Retransmit,
    /// A data packet held back for lack of destination credits,
    /// spanning enqueue to release.
    CreditStall,
    /// An injected fabric fault (drop, duplicate, reorder), surfaced as
    /// an instant.
    Fault,
    /// An injected shard crash (or hang onset), surfaced as an instant
    /// on the shard's track.
    Crash,
    /// A crashed shard restarting and replaying its journal, spanning
    /// restart to the moment it resumes service.
    Recovery,
    /// A periodic shard state snapshot, spanning its simulated cost.
    Checkpoint,
    /// The supervisor rerouting a down shard's keys to a failover peer
    /// (or handing them back), surfaced as an instant.
    Failover,
    /// Queued arrivals dropped by the supervisor's deadline shedding,
    /// surfaced as an instant (distinct from admission-control spills).
    Shed,
    /// One synchronization epoch of the parallel scheduler: the window
    /// between two virtual-time barriers in which shard domains advance
    /// independently.
    Epoch,
    /// A causal flow point on one message's end-to-end chain (rendered
    /// as a Perfetto flow event, see [`FlowId`]).
    Flow,
    /// Wall-clock (host-time) spans — the dual-clock profiler's tracks,
    /// never mixed into virtual-time artefacts.
    Wall,
    /// A recorder's ring overflowed for the first time: events after
    /// this instant displaced older ones, so the trace is truncated at
    /// the front.
    TraceOverflow,
    /// A reshard migration lifecycle event (plan, drain, transfer,
    /// handback or abort) moving a stream slot's durable home between
    /// shards at an epoch barrier.
    Migration,
    /// A fabric link lifecycle event: a traversal lost to a down
    /// window, a structured down notice (retransmit exhaustion parked
    /// on a dead link), or the heal that resumed it.
    LinkDown,
    /// A topology partition event: a shard (or link group) unreachable
    /// for a window, and the epoch-fenced rejection of stale work when
    /// it returns.
    Partition,
    /// A data-integrity event: an injected bit-flip, a CRC rejection,
    /// or a corrupted checkpoint forcing a snapshot fallback.
    Corruption,
    /// A configuration snapshot recorded into the trace (e.g. the
    /// fabric's knobs as one instant's args).
    Config,
}

impl SpanCategory {
    /// Stable lowercase label (the Perfetto `cat` string).
    pub(crate) fn label(self) -> &'static str {
        match self {
            SpanCategory::BatchAdmission => "batch_admission",
            SpanCategory::KernelLaunch => "kernel_launch",
            SpanCategory::FunctionalExec => "functional_exec",
            SpanCategory::TimingReplay => "timing_replay",
            SpanCategory::Compaction => "compaction",
            SpanCategory::Spill => "spill",
            SpanCategory::Match => "match",
            SpanCategory::Race => "race",
            SpanCategory::PacketFlight => "packet_flight",
            SpanCategory::Retransmit => "retransmit",
            SpanCategory::CreditStall => "credit_stall",
            SpanCategory::Fault => "fault",
            SpanCategory::Crash => "crash",
            SpanCategory::Recovery => "recovery",
            SpanCategory::Checkpoint => "checkpoint",
            SpanCategory::Failover => "failover",
            SpanCategory::Shed => "shed",
            SpanCategory::Epoch => "epoch",
            SpanCategory::Flow => "flow",
            SpanCategory::Wall => "wall",
            SpanCategory::TraceOverflow => "trace_overflow",
            SpanCategory::Migration => "migration",
            SpanCategory::LinkDown => "link_down",
            SpanCategory::Partition => "partition",
            SpanCategory::Corruption => "corruption",
            SpanCategory::Config => "config",
        }
    }
}

/// An argument attached to a span (rendered into the Perfetto `args`
/// object).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned counter-like value.
    U64(u64),
    /// Free-form text (e.g. a sanitizer finding).
    Text(String),
}

/// One recorded event: a complete span (`dur_ns > 0` or an explicit
/// completion) or an instant.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Filterable category.
    pub category: SpanCategory,
    /// Display name. Borrowed for the (hot-path) literal names so a
    /// record costs no string allocation; owned only when a producer
    /// computes the name.
    pub name: std::borrow::Cow<'static, str>,
    /// Start time on the shared simulated clock, in nanoseconds.
    pub(crate) start_ns: u64,
    /// Duration in nanoseconds (instants record 0 and `instant = true`).
    pub(crate) dur_ns: u64,
    /// True for point-in-time events (Perfetto phase `i`).
    pub instant: bool,
    /// When set, this event is a causal flow point (Perfetto phase
    /// `s`/`t`/`f`) rather than a span or instant.
    pub(crate) flow: Option<FlowPoint>,
    /// Key/value details.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Bounded flight recorder: a preallocated ring of [`SpanEvent`]s plus
/// the simulated-time cursor its producers share.
///
/// When the ring is full the oldest event is overwritten and
/// [`dropped`](Self::dropped) counts the loss — the recorder never
/// grows, so enabling tracing bounds memory by construction.
#[derive(Debug, Clone)]
pub struct SpanRecorder {
    /// Track id (Perfetto `tid`); the service uses the shard index.
    track: u32,
    capacity: usize,
    ring: Vec<SpanEvent>,
    /// Index of the next slot to write once the ring has wrapped.
    head: usize,
    wrapped: bool,
    dropped: u64,
    /// Whether the first-overflow announce instant has been emitted.
    overflow_announced: bool,
    /// Simulated-time cursor in nanoseconds.
    now_ns: u64,
}

impl SpanRecorder {
    /// Recorder for `track` holding at most `capacity` events.
    pub fn new(track: u32, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpanRecorder {
            track,
            capacity,
            ring: Vec::with_capacity(capacity),
            head: 0,
            wrapped: false,
            dropped: 0,
            overflow_announced: false,
            now_ns: 0,
        }
    }

    /// Track id this recorder writes under.
    pub fn track(&self) -> u32 {
        self.track
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Set the simulated clock (producers that own the timeline, e.g.
    /// the service loop, pin it before dispatching work).
    pub fn set_now_ns(&mut self, ns: u64) {
        self.now_ns = ns;
    }

    /// Advance the simulated clock by `ns` (launches advance it by their
    /// simulated duration).
    pub fn advance_ns(&mut self, ns: u64) {
        self.now_ns += ns;
    }

    /// Events lost to ring overwrite.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Forget all events and rewind the clock (a service run starts from
    /// a clean timeline so repeated runs export identical traces).
    pub fn reset(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.wrapped = false;
        self.dropped = 0;
        self.overflow_announced = false;
        self.now_ns = 0;
    }

    fn push(&mut self, ev: SpanEvent) {
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
            return;
        }
        // First overwrite: make the truncation self-announcing. The
        // announce instant itself displaces the oldest event (and is
        // counted dropped), so capacity stays exact.
        if !self.overflow_announced {
            self.overflow_announced = true;
            let announce = SpanEvent {
                category: SpanCategory::TraceOverflow,
                name: std::borrow::Cow::Borrowed("trace_overflow"),
                start_ns: self.now_ns,
                dur_ns: 0,
                instant: true,
                flow: None,
                args: vec![("capacity", ArgValue::U64(self.capacity as u64))],
            };
            self.overwrite(announce);
        }
        self.overwrite(ev);
    }

    fn overwrite(&mut self, ev: SpanEvent) {
        self.ring[self.head] = ev;
        self.head = (self.head + 1) % self.capacity;
        self.wrapped = true;
        self.dropped += 1;
    }

    /// Record a complete span `[start_ns, start_ns + dur_ns]`.
    pub fn record_complete(
        &mut self,
        category: SpanCategory,
        name: impl Into<std::borrow::Cow<'static, str>>,
        start_ns: u64,
        dur_ns: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.push(SpanEvent {
            category,
            name: name.into(),
            start_ns,
            dur_ns,
            instant: false,
            flow: None,
            args,
        });
    }

    /// Record an instant at the current clock.
    pub fn record_instant(
        &mut self,
        category: SpanCategory,
        name: impl Into<std::borrow::Cow<'static, str>>,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.push(SpanEvent {
            category,
            name: name.into(),
            start_ns: self.now_ns,
            dur_ns: 0,
            instant: true,
            flow: None,
            args,
        });
    }

    /// Record a causal flow point (see [`FlowId`]) at `start_ns` — one
    /// arrowhead on the message's end-to-end chain.
    pub fn record_flow(
        &mut self,
        name: impl Into<std::borrow::Cow<'static, str>>,
        id: FlowId,
        phase: FlowPhase,
        start_ns: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.push(SpanEvent {
            category: SpanCategory::Flow,
            name: name.into(),
            start_ns,
            dur_ns: 0,
            instant: false,
            flow: Some(FlowPoint { id, phase }),
            args,
        });
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &SpanEvent> {
        let (newer, older) = self.ring.split_at(self.head.min(self.ring.len()));
        older.iter().chain(newer.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = SpanRecorder::new(0, 3);
        for i in 0..5u64 {
            r.set_now_ns(i * 10);
            r.record_instant(SpanCategory::Spill, format!("e{i}"), vec![]);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(
            r.dropped(),
            3,
            "two displaced events plus the announce's own overwrite"
        );
        let names: Vec<&str> = r.events().map(|e| e.name.as_ref()).collect();
        assert_eq!(
            names,
            vec!["trace_overflow", "e3", "e4"],
            "oldest first, the first overflow announces itself"
        );
        let announce = r.events().next().unwrap();
        assert_eq!(announce.category, SpanCategory::TraceOverflow);
        assert!(announce.instant);
    }

    #[test]
    fn flow_points_record_with_ids_and_phases() {
        let mut r = SpanRecorder::new(2, 8);
        let id = FlowId::service(1, 7);
        r.record_flow("admitted", id, FlowPhase::Start, 100, vec![]);
        r.record_flow("delivered", id, FlowPhase::End, 900, vec![]);
        let points: Vec<&SpanEvent> = r.events().collect();
        assert_eq!(points.len(), 2);
        assert_eq!(
            points[0].flow,
            Some(FlowPoint {
                id,
                phase: FlowPhase::Start
            })
        );
        assert_eq!(
            points[1].flow,
            Some(FlowPoint {
                id,
                phase: FlowPhase::End
            })
        );
        assert!(points.iter().all(|e| e.category == SpanCategory::Flow));
    }

    #[test]
    fn clock_is_explicit_and_monotone_under_advance() {
        let mut r = SpanRecorder::new(7, 16);
        assert_eq!(r.now_ns(), 0);
        r.advance_ns(500);
        r.record_complete(SpanCategory::KernelLaunch, "k", 0, 500, vec![]);
        assert_eq!(r.now_ns(), 500);
        let ev = r.events().next().unwrap();
        assert_eq!((ev.start_ns, ev.dur_ns, ev.instant), (0, 500, false));
    }

    #[test]
    fn reset_rewinds_everything() {
        let mut r = SpanRecorder::new(1, 2);
        r.advance_ns(9);
        r.record_instant(SpanCategory::Race, "x", vec![]);
        r.reset();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.now_ns(), 0);
    }
}
