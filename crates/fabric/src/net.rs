//! The fabric itself: a deterministic discrete-event simulation of a
//! packetized interconnect.
//!
//! One [`Fabric`] models the node's full mesh of directed links. All
//! state advances through a single event queue ordered by `(time, event
//! id)`, and all randomness comes from one seeded generator, so a run is
//! a pure function of `(config, call sequence)` — the determinism tests
//! and the bench JSON rely on that.
//!
//! ## Protocol summary
//!
//! *Eager* (payload ≤ threshold): fragments ship immediately, each
//! consuming a flow-control credit. *Rendezvous* (payload > threshold):
//! an RTS announces the message; the receiver answers CTS (which doubles
//! as the RTS ack); data then flows like the eager path. Every data
//! packet is individually acknowledged (selective repeat). Unacked
//! sequenced packets retransmit on timeout with exponential backoff
//! until [`FabricConfig::max_retransmits`] is exhausted, at which point
//! the packet is declared dead and surfaces as an error — unless the
//! link was *down* (a flap or partition window from
//! [`crate::config::LinkFaultConfig`]), in which case the packet parks,
//! a structured [`LinkEvent::Down`] notice is emitted, and the heal
//! resumes selective repeat from the surviving unacked window.
//!
//! Credits model slots in the destination's landing queue: consumed at
//! first transmission, returned when the first acknowledgement arrives
//! (or on packet death, so a lossy run cannot deadlock the channel).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

use bytes::Bytes;
use msg_match::Envelope;
use obs::{ArgValue, SpanCategory, SpanRecorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{DeliveryOrder, FabricConfig};
use crate::packet::{crc32, DeadKind, DeadPacket, Packet, PacketBody};
use crate::stats::FabricStats;

/// A message released to its destination endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Sending endpoint.
    pub src: u32,
    /// Receiving endpoint.
    pub dst: u32,
    /// Per-`(src, dst)` message index — the sequence a user-level
    /// reorder buffer consumes under [`DeliveryOrder::Unordered`].
    pub msg_seq: u64,
    /// Matching header.
    pub envelope: Envelope,
    /// Reassembled payload.
    pub payload: Bytes,
    /// True when this is a re-delivery of an already-delivered message
    /// (only possible with [`FabricConfig::dedup`] disabled).
    pub duplicate: bool,
    /// Causal flow id the sender attached via [`Fabric::send_flow`],
    /// echoed back so the layer above can chain its trace points.
    pub flow: Option<u64>,
}

/// A structured link lifecycle notice, surfaced through
/// [`Fabric::take_link_events`] (and the `Transport` seam above)
/// instead of a hard error. Retransmit exhaustion against a down link
/// parks the packet and emits `Down` once per episode; the first
/// timeout processed after the window closes emits `Healed` and
/// selective repeat resumes from the surviving unacked window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEvent {
    /// `src → dst` is down and has stranded at least one packet.
    Down {
        /// Sending endpoint of the dead link.
        src: u32,
        /// Receiving endpoint of the dead link.
        dst: u32,
        /// Simulated time the notice was raised.
        at_ns: u64,
    },
    /// `src → dst` recovered; parked packets are retransmitting again.
    Healed {
        /// Sending endpoint of the healed link.
        src: u32,
        /// Receiving endpoint of the healed link.
        dst: u32,
        /// Simulated time the heal was observed.
        at_ns: u64,
    },
}

/// SplitMix64 finalizer: the cheap stateless mixer behind the link
/// fault schedule. Quality matters less than determinism here, but it
/// passes the usual avalanche tests.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Map a hash to `[0, 1)` using its top 53 bits.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A retransmission timer: fires for `seq` on the `key.0 → key.1`
/// channel (a no-op when the packet was acknowledged in the meantime).
#[derive(Debug, Clone, Copy)]
struct Timer {
    key: (u32, u32),
    seq: u64,
}

#[derive(Debug)]
enum Event {
    Arrival(Packet),
    Timeout(Timer),
}

/// The pending events, released in `(at_ns, eid)` order — `eid` being
/// the order of the [`EventQueue::push`] calls, so simultaneous events
/// fire in the order they were scheduled.
///
/// Two queues feed that one order. The heap holds 24-byte
/// `(at_ns, eid, slot)` keys; the events themselves (a whole [`Packet`]
/// for an arrival) sit still in a slab while the keys sift. Retransmit
/// timers, most of which fire after their packet was acknowledged and
/// do nothing, skip the heap: with a flat timeout their deadlines are
/// scheduled in non-decreasing order, so a FIFO already is sorted. A
/// timer whose deadline precedes the FIFO's back (backoff, a re-armed
/// parked packet) goes to the heap like any other event, and
/// [`EventQueue::pop_due`] merges the two heads by `(at_ns, eid)`.
#[derive(Debug, Default)]
struct EventQueue {
    next_eid: u64,
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Events of the heap's keys, by slot; `None` slots are in `free`.
    slab: Vec<Option<Event>>,
    free: Vec<u32>,
    /// `(at_ns, eid, timer)`, sorted by construction.
    timers: VecDeque<(u64, u64, Timer)>,
}

impl EventQueue {
    fn push(&mut self, at_ns: u64, event: Event) {
        let eid = self.next_eid;
        self.next_eid += 1;
        if let Event::Timeout(timer) = event {
            if self.timers.back().is_none_or(|&(back, ..)| back <= at_ns) {
                self.timers.push_back((at_ns, eid, timer));
                return;
            }
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Reverse((at_ns, eid, slot)));
    }

    /// When the earliest pending event is due.
    fn next_at(&self) -> Option<u64> {
        let heap = self.heap.peek().map(|&Reverse((at, ..))| at);
        let timer = self.timers.front().map(|&(at, ..)| at);
        heap.into_iter().chain(timer).min()
    }

    /// Remove and return the earliest pending event with its time, if
    /// it is due at or before `limit_ns`.
    fn pop_due(&mut self, limit_ns: u64) -> Option<(u64, Event)> {
        let heap = self.heap.peek().map(|&Reverse((at, eid, _))| (at, eid));
        let timer = self.timers.front().map(|&(at, eid, _)| (at, eid));
        let from_timers = match (heap, timer) {
            (Some(h), Some(t)) => t < h,
            (None, Some(_)) => true,
            (_, None) => false,
        };
        if from_timers {
            let &(at, _, timer) = self.timers.front()?;
            if at > limit_ns {
                return None;
            }
            self.timers.pop_front();
            return Some((at, Event::Timeout(timer)));
        }
        let &Reverse((at, _, slot)) = self.heap.peek()?;
        if at > limit_ns {
            return None;
        }
        self.heap.pop();
        self.free.push(slot);
        let event = self.slab[slot as usize]
            .take()
            .expect("a heap key owns its slot");
        Some((at, event))
    }
}

#[derive(Debug)]
struct Outstanding {
    packet: Packet,
    retries: u32,
    rto_ns: u64,
    /// When the current retransmit budget started burning: the first
    /// send, or the last park. The exhaustion check spares the packet
    /// if a link window overlapped any part of `[burn_start_ns, now)`.
    burn_start_ns: u64,
    credited: bool,
}

#[derive(Debug)]
struct SenderChannel {
    next_seq: u64,
    next_msg_seq: u64,
    credits: u32,
    unacked: BTreeMap<u64, Outstanding>,
    /// Data packets waiting for a credit, with their enqueue time.
    stalled: VecDeque<(u64, Packet)>,
    /// Rendezvous payloads awaiting CTS, keyed by message index.
    pending_rendezvous: BTreeMap<u64, (Envelope, Bytes, Option<u64>)>,
}

impl SenderChannel {
    fn new(credits: u32) -> Self {
        SenderChannel {
            next_seq: 0,
            next_msg_seq: 0,
            credits,
            unacked: BTreeMap::new(),
            stalled: VecDeque::new(),
            pending_rendezvous: BTreeMap::new(),
        }
    }

    fn idle(&self) -> bool {
        self.unacked.is_empty() && self.stalled.is_empty() && self.pending_rendezvous.is_empty()
    }
}

#[derive(Debug)]
struct Reassembly {
    envelope: Envelope,
    frags: Vec<Option<Bytes>>,
    received: u32,
    flow: Option<u64>,
}

impl Reassembly {
    fn concat(self) -> Bytes {
        let mut frags = self.frags;
        if frags.len() == 1 {
            return frags.pop().flatten().unwrap_or_default();
        }
        let mut out = Vec::new();
        for f in frags {
            out.extend_from_slice(&f.expect("complete reassembly has every fragment"));
        }
        Bytes::from(out)
    }
}

#[derive(Debug, Default)]
struct ReceiverChannel {
    /// Every reliability sequence below this has been received.
    seen_floor: u64,
    /// Received sequences at or above the floor.
    seen: BTreeSet<u64>,
    /// Partially reassembled messages, keyed by message index.
    reassembly: BTreeMap<u64, Reassembly>,
    /// FIFO mode: next message index to release.
    next_deliver: u64,
    /// FIFO mode: completed messages held for order.
    stash: BTreeMap<u64, (Envelope, Bytes, Option<u64>)>,
}

impl ReceiverChannel {
    /// Record a sequenced packet; false when it is a duplicate.
    fn mark_seen(&mut self, seq: u64) -> bool {
        if seq < self.seen_floor || self.seen.contains(&seq) {
            return false;
        }
        self.seen.insert(seq);
        while self.seen.remove(&self.seen_floor) {
            self.seen_floor += 1;
        }
        true
    }

    fn idle(&self) -> bool {
        self.reassembly.is_empty() && self.stash.is_empty()
    }
}

/// Deterministic simulated interconnect between `ranks` endpoints.
pub struct Fabric {
    cfg: FabricConfig,
    ranks: u32,
    now_ns: u64,
    events: EventQueue,
    /// Per directed link `src → dst`, at index `src * ranks + dst` (the
    /// topology is fixed at construction): the sending half of the
    /// channel, …
    senders: Vec<SenderChannel>,
    /// … its receiving half, …
    receivers: Vec<ReceiverChannel>,
    /// … and when the link's serializer frees up.
    link_busy: Vec<u64>,
    inboxes: Vec<Vec<Delivery>>,
    rng: StdRng,
    stats: FabricStats,
    /// Per-link trace recorders (BTreeMap: deterministic export order).
    recorders: BTreeMap<(u32, u32), SpanRecorder>,
    /// Human-readable records of packets that exhausted retransmission.
    dead: Vec<String>,
    /// Typed counterparts of `dead`, in the same order.
    dead_packets: Vec<DeadPacket>,
    /// Retransmission exhaustions per directed link (BTreeMap:
    /// deterministic Prometheus sample order).
    exhausted_by_link: BTreeMap<(u32, u32), u64>,
    /// Structured link lifecycle notices awaiting collection.
    link_events: Vec<LinkEvent>,
    /// Links with an emitted `Down` notice whose heal has not fired yet.
    down_notified: BTreeSet<(u32, u32)>,
    /// Recorder holding the one `fabric_config` instant (tracing only).
    cfg_rec: Option<SpanRecorder>,
}

impl Fabric {
    /// A fabric connecting `ranks` endpoints pairwise.
    ///
    /// The per-link tables are dense and built here, `ranks`² entries
    /// of about 200 bytes whether or not a link ever carries traffic
    /// (unused self-links included), and [`Self::in_flight_idle`] walks
    /// them. That suits the node-sized meshes this models (the repo's
    /// callers stay at or below 8 ranks); it is not meant for thousands.
    ///
    /// # Panics
    /// Panics on an invalid configuration (see
    /// [`FabricConfig::validate`]) or zero ranks.
    pub fn new(ranks: u32, cfg: FabricConfig) -> Self {
        assert!(ranks > 0, "a fabric needs at least one endpoint");
        cfg.validate().expect("invalid fabric config");
        let cfg_rec = cfg.trace.then(|| {
            let mut rec = SpanRecorder::new(obs::tracks::fabric_config(cfg.trace_track_base), 4);
            let args: Vec<(&'static str, ArgValue)> = cfg
                .params()
                .into_iter()
                .map(|(k, v)| (k, ArgValue::Text(v)))
                .collect();
            rec.record_instant(SpanCategory::Config, "fabric_config", args);
            rec
        });
        let links = ranks as usize * ranks as usize;
        Fabric {
            cfg,
            ranks,
            now_ns: 0,
            events: EventQueue::default(),
            senders: (0..links)
                .map(|_| SenderChannel::new(cfg.credits))
                .collect(),
            receivers: (0..links).map(|_| ReceiverChannel::default()).collect(),
            link_busy: vec![0; links],
            inboxes: (0..ranks).map(|_| Vec::new()).collect(),
            rng: StdRng::seed_from_u64(cfg.seed),
            stats: FabricStats::default(),
            recorders: BTreeMap::new(),
            dead: Vec::new(),
            dead_packets: Vec::new(),
            exhausted_by_link: BTreeMap::new(),
            link_events: Vec::new(),
            down_notified: BTreeSet::new(),
            cfg_rec,
        }
    }

    /// Number of endpoints.
    pub fn ranks(&self) -> u32 {
        self.ranks
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Aggregate counters.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// The active configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Index of the directed link `key.0 → key.1` in the per-link tables.
    fn link(&self, key: (u32, u32)) -> usize {
        key.0 as usize * self.ranks as usize + key.1 as usize
    }

    /// Packets that exhausted their retransmission budget (empty on a
    /// healthy run).
    pub fn errors(&self) -> &[String] {
        &self.dead
    }

    /// Typed records of the packets in [`Self::errors`], in the same
    /// order — so supervisors can react to *which* transfer died
    /// instead of parsing prose.
    pub fn dead_packets(&self) -> &[DeadPacket] {
        &self.dead_packets
    }

    /// Drain the structured link lifecycle notices accumulated so far:
    /// down episodes that stranded traffic, and the heals that resumed
    /// them.
    pub fn take_link_events(&mut self) -> Vec<LinkEvent> {
        std::mem::take(&mut self.link_events)
    }

    /// The flap down-window of `key` inside the flap cycle containing
    /// `t_ns`, if that cycle has one, as absolute `(start, end)` ns.
    /// Windows always fit inside their cycle (validated), so one cycle
    /// lookup suffices.
    fn flap_window(&self, key: (u32, u32), t_ns: u64) -> Option<(u64, u64)> {
        let lf = &self.cfg.link_fault;
        if lf.flap_prob <= 0.0 {
            return None;
        }
        let cycle = t_ns / lf.flap_period_ns;
        let h = mix64(
            self.cfg.seed
                ^ mix64((u64::from(key.0) << 32) | u64::from(key.1))
                ^ cycle.wrapping_mul(0xA24B_AED4_963E_E407),
        );
        if unit(h) >= lf.flap_prob {
            return None;
        }
        let start = cycle * lf.flap_period_ns + mix64(h) % (lf.flap_period_ns - lf.flap_down_ns);
        Some((start, start + lf.flap_down_ns))
    }

    /// The topology-partition window of the partition cycle containing
    /// `t_ns`, if that cycle has one.
    fn partition_window(&self, t_ns: u64) -> Option<(u64, u64)> {
        let lf = &self.cfg.link_fault;
        if lf.partition_prob <= 0.0 {
            return None;
        }
        let cycle = t_ns / lf.partition_period_ns;
        let h = mix64(self.cfg.seed ^ 0x7061_7274 ^ cycle.wrapping_mul(0x9E6C_63D0_876A_68DD));
        if unit(h) >= lf.partition_prob {
            return None;
        }
        let start = cycle * lf.partition_period_ns
            + mix64(h) % (lf.partition_period_ns - lf.partition_down_ns);
        Some((start, start + lf.partition_down_ns))
    }

    /// Which side of the partition cut `rank` lands on in `cycle`.
    fn partition_side(&self, cycle: u64, rank: u32) -> bool {
        mix64(self.cfg.seed ^ 0x7369_6465 ^ cycle.rotate_left(17) ^ (u64::from(rank) << 40)) & 1
            == 1
    }

    /// True when the directed link `src → dst` is inside a down window
    /// at `t_ns` — its own flap window, or a topology partition whose
    /// cut separates the two ranks. A pure function of `(config, link,
    /// time)`: no RNG is consumed, so the answer is identical across
    /// runs and schedulers.
    pub fn link_down_at(&self, src: u32, dst: u32, t_ns: u64) -> bool {
        if let Some((s, e)) = self.flap_window((src, dst), t_ns) {
            if (s..e).contains(&t_ns) {
                return true;
            }
        }
        if let Some((s, e)) = self.partition_window(t_ns) {
            if (s..e).contains(&t_ns) {
                let cycle = t_ns / self.cfg.link_fault.partition_period_ns;
                if self.partition_side(cycle, src) != self.partition_side(cycle, dst) {
                    return true;
                }
            }
        }
        false
    }

    /// First time at or after `t_ns` when the link is up. Terminates:
    /// windows never cover a whole cycle, so each iteration jumps at
    /// least to the end of one window.
    fn link_up_after(&self, key: (u32, u32), mut t_ns: u64) -> u64 {
        while self.link_down_at(key.0, key.1, t_ns) {
            let mut next = t_ns + 1;
            if let Some((s, e)) = self.flap_window(key, t_ns) {
                if (s..e).contains(&t_ns) {
                    next = next.max(e);
                }
            }
            if let Some((s, e)) = self.partition_window(t_ns) {
                if (s..e).contains(&t_ns) {
                    next = next.max(e);
                }
            }
            t_ns = next;
        }
        t_ns
    }

    /// True when a down window on `key` *or its reverse* (the ack path)
    /// intersects `[from, to)` — i.e. the silence that just expired a
    /// retransmission timer is attributable to link faults rather than
    /// a genuinely dead peer. Exhaustion is only terminal when this is
    /// false: a budget burned against a downed path says nothing about
    /// the path's health.
    fn path_disturbed_between(&self, key: (u32, u32), from: u64, to: u64) -> bool {
        let lf = &self.cfg.link_fault;
        if lf.is_quiet() {
            return false;
        }
        let overlaps = |win: Option<(u64, u64)>| win.is_some_and(|(s, e)| s < to && e > from);
        let rev = (key.1, key.0);
        if lf.flap_prob > 0.0 {
            for c in from / lf.flap_period_ns..=to / lf.flap_period_ns {
                let t = c * lf.flap_period_ns;
                if overlaps(self.flap_window(key, t)) || overlaps(self.flap_window(rev, t)) {
                    return true;
                }
            }
        }
        if lf.partition_prob > 0.0 {
            for c in from / lf.partition_period_ns..=to / lf.partition_period_ns {
                let t = c * lf.partition_period_ns;
                if overlaps(self.partition_window(t))
                    && self.partition_side(c, key.0) != self.partition_side(c, key.1)
                {
                    return true;
                }
            }
        }
        false
    }

    /// Inject `payload` from `src` to `dst` at the current simulated
    /// time. Eager or rendezvous is chosen by
    /// [`FabricConfig::eager_threshold`].
    ///
    /// # Panics
    /// Panics on out-of-range ranks or a self-send.
    pub fn send(&mut self, src: u32, dst: u32, envelope: Envelope, payload: Bytes) {
        self.send_flow(src, dst, envelope, payload, None);
    }

    /// [`Self::send`] with a causal flow id attached: the id rides every
    /// packet of the message and is echoed back on [`Delivery::flow`],
    /// with flow trace points recorded on the link track when tracing is
    /// on. Protocol behaviour is identical to a flow-less send.
    ///
    /// # Panics
    /// Panics on out-of-range ranks or a self-send.
    pub fn send_flow(
        &mut self,
        src: u32,
        dst: u32,
        envelope: Envelope,
        payload: Bytes,
        flow: Option<u64>,
    ) {
        assert!(src < self.ranks && dst < self.ranks, "rank out of range");
        assert_ne!(src, dst, "the fabric links distinct endpoints");
        self.stats.messages_sent += 1;
        let key = (src, dst);
        let link = self.link(key);
        let ch = &mut self.senders[link];
        let msg_seq = ch.next_msg_seq;
        ch.next_msg_seq += 1;
        if payload.len() <= self.cfg.eager_threshold {
            self.stats.eager_messages += 1;
            self.queue_message_data(key, msg_seq, envelope, payload, flow);
        } else {
            self.stats.rendezvous_messages += 1;
            let seq = ch.next_seq;
            ch.next_seq += 1;
            ch.pending_rendezvous
                .insert(msg_seq, (envelope, payload.clone(), flow));
            let rts = Packet {
                src,
                dst,
                seq,
                flow,
                body: PacketBody::Rts {
                    msg_seq,
                    total_len: payload.len(),
                    envelope,
                },
            };
            self.track_unacked(key, rts.clone(), false);
            self.transmit(rts, false);
        }
    }

    /// Fragment `payload` and enqueue its data packets (credits gate
    /// each packet's transmission).
    fn queue_message_data(
        &mut self,
        key: (u32, u32),
        msg_seq: u64,
        envelope: Envelope,
        payload: Bytes,
        flow: Option<u64>,
    ) {
        let frags = payload.len().div_ceil(self.cfg.mtu).max(1) as u32;
        let link = self.link(key);
        let ch = &mut self.senders[link];
        let base_seq = ch.next_seq;
        ch.next_seq += frags as u64;
        for frag in 0..frags {
            // Fragments are views into the message's buffer, not copies.
            let lo = frag as usize * self.cfg.mtu;
            let hi = (lo + self.cfg.mtu).min(payload.len());
            let chunk = payload.slice(lo..hi);
            let crc = crc32(&chunk);
            let pkt = Packet {
                src: key.0,
                dst: key.1,
                seq: base_seq + frag as u64,
                flow,
                body: PacketBody::Data {
                    msg_seq,
                    frag,
                    frags,
                    total_len: payload.len(),
                    envelope,
                    crc,
                    chunk,
                },
            };
            let ch = &mut self.senders[link];
            if ch.credits == 0 || !ch.stalled.is_empty() {
                self.stats.credit_stalls += 1;
                let now = self.now_ns;
                ch.stalled.push_back((now, pkt));
                continue;
            }
            ch.credits -= 1;
            self.track_unacked(key, pkt.clone(), true);
            self.transmit(pkt, false);
        }
    }

    /// Release stalled data packets while credits allow.
    fn release_stalled(&mut self, key: (u32, u32)) {
        let link = self.link(key);
        loop {
            let (waited_since, pkt) = {
                let ch = &mut self.senders[link];
                if ch.credits == 0 || ch.stalled.is_empty() {
                    return;
                }
                ch.credits -= 1;
                ch.stalled.pop_front().expect("non-empty")
            };
            let stall_ns = self.now_ns - waited_since;
            self.stats.credit_stall_ns += stall_ns;
            let seq = pkt.seq;
            if let Some(rec) = self.rec(key) {
                rec.record_complete(
                    SpanCategory::CreditStall,
                    "credit_stall",
                    waited_since,
                    stall_ns,
                    vec![("seq", ArgValue::U64(seq))],
                );
            }
            self.track_unacked(key, pkt.clone(), true);
            self.transmit(pkt, false);
        }
    }

    /// Register a sequenced packet as unacknowledged and arm its timer.
    fn track_unacked(&mut self, key: (u32, u32), packet: Packet, credited: bool) {
        debug_assert!(packet.is_sequenced());
        let rto = self.cfg.retransmit_timeout_ns;
        let seq = packet.seq;
        let link = self.link(key);
        self.senders[link].unacked.insert(
            seq,
            Outstanding {
                packet,
                retries: 0,
                rto_ns: rto,
                burn_start_ns: self.now_ns,
                credited,
            },
        );
        self.events
            .push(self.now_ns + rto, Event::Timeout(Timer { key, seq }));
    }

    /// Per-link trace recorder, clock pinned to the fabric's `now`.
    fn rec(&mut self, key: (u32, u32)) -> Option<&mut SpanRecorder> {
        if !self.cfg.trace {
            return None;
        }
        let track = obs::tracks::fabric_link(self.cfg.trace_track_base, key.0, key.1);
        let capacity = self.cfg.trace_capacity;
        let now = self.now_ns;
        let rec = self
            .recorders
            .entry(key)
            .or_insert_with(|| SpanRecorder::new(track, capacity));
        rec.set_now_ns(now);
        Some(rec)
    }

    /// Put one packet on its link: serialize, apply faults, schedule
    /// arrival(s), trace the flight.
    fn transmit(&mut self, pkt: Packet, retransmit: bool) {
        let key = (pkt.src, pkt.dst);
        let wire = pkt.wire_bytes() as u64;
        let link = self.link(key);
        let start = self.now_ns.max(self.link_busy[link]);
        let ser = (wire as f64 / self.cfg.bandwidth_bytes_per_ns).ceil() as u64;
        self.link_busy[link] = start + ser;
        self.stats.wire_bytes += wire;
        if retransmit {
            self.stats.retransmits += 1;
            if let Some(rec) = self.rec(key) {
                rec.record_instant(
                    SpanCategory::Retransmit,
                    "retransmit",
                    vec![("seq", ArgValue::U64(pkt.seq))],
                );
                if let Some(fid) = pkt.flow {
                    rec.record_flow(
                        "retransmit",
                        obs::FlowId(fid),
                        obs::FlowPhase::Step,
                        start,
                        vec![("seq", ArgValue::U64(pkt.seq))],
                    );
                }
            }
        } else {
            self.stats.packets_sent += 1;
            if pkt.needs_credit() {
                self.stats.data_packets += 1;
            } else {
                self.stats.control_packets += 1;
            }
            if let Some(fid) = pkt.flow {
                let seq = pkt.seq;
                if let Some(rec) = self.rec(key) {
                    rec.record_flow(
                        "packetize",
                        obs::FlowId(fid),
                        obs::FlowPhase::Step,
                        start,
                        vec![("seq", ArgValue::U64(seq))],
                    );
                }
            }
        }

        let base = start + ser + self.cfg.link_latency_ns;
        if !self.cfg.link_fault.is_quiet()
            && (self.link_down_at(pkt.src, pkt.dst, start)
                || self.link_down_at(pkt.src, pkt.dst, base))
        {
            // The traversal departs or lands inside a down window: lost
            // on the floor. Retransmission (or the missing ack) repairs
            // sequenced packets; unsequenced answers are regenerated by
            // the peer's own retransmit.
            self.stats.link_down_drops += 1;
            if let Some(rec) = self.rec(key) {
                rec.record_instant(
                    SpanCategory::LinkDown,
                    "link_down_drop",
                    vec![("seq", ArgValue::U64(pkt.seq))],
                );
            }
            return;
        }
        let fault = self.cfg.fault;
        // At most two copies land: the traversal itself unless dropped,
        // then its duplicate.
        let mut original = None;
        if fault.drop_prob > 0.0 && self.rng.gen_bool(fault.drop_prob) {
            self.stats.drops_injected += 1;
            if let Some(rec) = self.rec(key) {
                rec.record_instant(
                    SpanCategory::Fault,
                    "drop",
                    vec![("seq", ArgValue::U64(pkt.seq))],
                );
            }
        } else {
            let mut at = base;
            if fault.reorder_prob > 0.0 && self.rng.gen_bool(fault.reorder_prob) {
                let skew = if fault.reorder_skew_ns == 0 {
                    0
                } else {
                    self.rng.gen_range(1..=fault.reorder_skew_ns)
                };
                at += skew;
                self.stats.reorders_injected += 1;
                if let Some(rec) = self.rec(key) {
                    rec.record_instant(
                        SpanCategory::Fault,
                        "reorder",
                        vec![
                            ("seq", ArgValue::U64(pkt.seq)),
                            ("skew_ns", ArgValue::U64(skew)),
                        ],
                    );
                }
            }
            original = Some(at);
        }
        let mut duplicate = None;
        if fault.duplicate_prob > 0.0 && self.rng.gen_bool(fault.duplicate_prob) {
            let extra = if fault.reorder_skew_ns == 0 {
                self.cfg.link_latency_ns.max(1)
            } else {
                self.rng.gen_range(1..=fault.reorder_skew_ns)
            };
            duplicate = Some(base + extra);
            self.stats.duplicates_injected += 1;
            if let Some(rec) = self.rec(key) {
                rec.record_instant(
                    SpanCategory::Fault,
                    "duplicate",
                    vec![("seq", ArgValue::U64(pkt.seq))],
                );
            }
        }
        match (original, duplicate) {
            (Some(at), Some(dup_at)) => {
                self.land(pkt.clone(), start, at, wire);
                self.land(pkt, start, dup_at, wire);
            }
            (Some(at), None) | (None, Some(at)) => self.land(pkt, start, at, wire),
            (None, None) => {}
        }
    }

    /// Schedule one copy of `pkt` (departed at `start`) to arrive at
    /// `at`, possibly with a flipped payload bit.
    fn land(&mut self, mut pkt: Packet, start: u64, at: u64, wire: u64) {
        let key = (pkt.src, pkt.dst);
        let seq = pkt.seq;
        let name = pkt.kind_label();
        if let Some(rec) = self.rec(key) {
            rec.record_complete(
                SpanCategory::PacketFlight,
                name,
                start,
                at - start,
                vec![("seq", ArgValue::U64(seq)), ("bytes", ArgValue::U64(wire))],
            );
        }
        if self.cfg.fault.corrupt_prob > 0.0 {
            if let PacketBody::Data { chunk, .. } = &mut pkt.body {
                if !chunk.is_empty() && self.rng.gen_bool(self.cfg.fault.corrupt_prob) {
                    // Flip one payload bit in the arriving copy only
                    // — the sender's unacked copy stays clean, so
                    // the repair retransmission carries good bytes.
                    let bit = self.rng.gen_range(0..chunk.len() * 8);
                    let mut bytes = chunk.to_vec();
                    bytes[bit / 8] ^= 1 << (bit % 8);
                    *chunk = Bytes::from(bytes);
                    self.stats.corruptions_injected += 1;
                    if let Some(rec) = self.rec(key) {
                        rec.record_instant(
                            SpanCategory::Corruption,
                            "bit_flip",
                            vec![("seq", ArgValue::U64(seq))],
                        );
                    }
                }
            }
        }
        self.events.push(at, Event::Arrival(pkt));
    }

    /// Move the clock to `at_ns` and run the event due then.
    fn handle(&mut self, at_ns: u64, event: Event) {
        self.now_ns = at_ns;
        match event {
            Event::Arrival(pkt) => self.arrive(pkt),
            Event::Timeout(Timer { key, seq }) => self.fire_timeout(key, seq),
        }
    }

    fn fire_timeout(&mut self, key: (u32, u32), seq: u64) {
        let lf_quiet = self.cfg.link_fault.is_quiet();
        let down_now = !lf_quiet && self.link_down_at(key.0, key.1, self.now_ns);
        // A timeout processed while the link is back up closes any open
        // down episode on this link: the heal notice tells the layer
        // above that parked traffic is moving again.
        if !lf_quiet && !down_now && self.down_notified.remove(&key) {
            self.stats.link_heal_events += 1;
            let now = self.now_ns;
            self.link_events.push(LinkEvent::Healed {
                src: key.0,
                dst: key.1,
                at_ns: now,
            });
            if let Some(rec) = self.rec(key) {
                rec.record_instant(SpanCategory::LinkDown, "link_heal", vec![]);
            }
        }
        let link = self.link(key);
        let Some((retries, burn_start)) = self.senders[link]
            .unacked
            .get(&seq)
            .map(|o| (o.retries, o.burn_start_ns))
        else {
            return; // acknowledged in the meantime — stale timer
        };
        if retries >= self.cfg.max_retransmits {
            // Exhaustion is only terminal when the silence cannot be
            // blamed on link lifecycle faults: a window on this link
            // (or its reverse, which carries the acks) overlapping any
            // part of the interval the budget burned over means the
            // retries were spent against a downed path, not a dead
            // peer — including a budget that outlasts the window and
            // only exhausts after the heal.
            let spared = down_now || self.path_disturbed_between(key, burn_start, self.now_ns);
            if spared {
                // Park, don't kill: keep the packet in the unacked
                // window with a fresh budget and re-arm its timer for
                // the heal. A structured notice (one per link per down
                // episode) replaces the dead-packet error.
                let out = self.senders[link].unacked.get_mut(&seq).expect("present");
                out.retries = 0;
                out.rto_ns = self.cfg.retransmit_timeout_ns;
                out.burn_start_ns = self.now_ns;
                self.stats.parked_packets += 1;
                let resume_at = if down_now {
                    self.link_up_after(key, self.now_ns)
                } else {
                    self.now_ns + self.cfg.retransmit_timeout_ns
                };
                let at = resume_at.max(self.now_ns + 1);
                self.events.push(at, Event::Timeout(Timer { key, seq }));
                if down_now && self.down_notified.insert(key) {
                    self.stats.link_down_events += 1;
                    let now = self.now_ns;
                    self.link_events.push(LinkEvent::Down {
                        src: key.0,
                        dst: key.1,
                        at_ns: now,
                    });
                    if let Some(rec) = self.rec(key) {
                        rec.record_instant(
                            SpanCategory::LinkDown,
                            "link_down",
                            vec![
                                ("seq", ArgValue::U64(seq)),
                                ("resume_at_ns", ArgValue::U64(at)),
                            ],
                        );
                    }
                }
                return;
            }
            let ch = &mut self.senders[link];
            let out = ch.unacked.remove(&seq).expect("present");
            if out.credited {
                ch.credits += 1;
            }
            // The rendezvous payload (if any) will never be granted.
            if let PacketBody::Rts { msg_seq, .. } = out.packet.body {
                ch.pending_rendezvous.remove(&msg_seq);
            }
            self.stats.exhausted_retries += 1;
            *self.exhausted_by_link.entry(key).or_insert(0) += 1;
            let kind = match out.packet.body {
                PacketBody::Rts { .. } => DeadKind::Rts,
                _ => DeadKind::Data,
            };
            self.dead_packets.push(DeadPacket {
                src: key.0,
                dst: key.1,
                seq,
                kind,
            });
            self.dead.push(format!(
                "packet seq {seq} on link {}->{} dead after {} retransmits",
                key.0, key.1, out.retries
            ));
            self.release_stalled(key);
            return;
        }
        let backoff = self.cfg.backoff as u64;
        let out = self.senders[link].unacked.get_mut(&seq).expect("present");
        out.retries += 1;
        out.rto_ns = out.rto_ns.saturating_mul(backoff);
        let pkt = out.packet.clone();
        let next_deadline = self.now_ns + out.rto_ns;
        self.events
            .push(next_deadline, Event::Timeout(Timer { key, seq }));
        self.transmit(pkt, true);
    }

    fn arrive(&mut self, pkt: Packet) {
        let Packet {
            src,
            dst,
            seq,
            flow,
            body,
        } = pkt;
        match body {
            PacketBody::Ack { data_seq } => {
                let key = (dst, src);
                let link = self.link(key);
                let ch = &mut self.senders[link];
                if let Some(out) = ch.unacked.remove(&data_seq) {
                    if out.credited {
                        ch.credits += 1;
                        self.release_stalled(key);
                    }
                }
            }
            PacketBody::Cts { msg_seq, rts_seq } => {
                let key = (dst, src);
                let link = self.link(key);
                let ch = &mut self.senders[link];
                ch.unacked.remove(&rts_seq);
                if let Some((envelope, payload, flow)) = ch.pending_rendezvous.remove(&msg_seq) {
                    self.queue_message_data(key, msg_seq, envelope, payload, flow);
                }
            }
            PacketBody::Rts { msg_seq, .. } => {
                let link = self.link((src, dst));
                if !self.receivers[link].mark_seen(seq) {
                    self.stats.duplicate_packets_dropped += 1;
                }
                // Grant (or re-grant) unconditionally: CTS is the RTS
                // ack, and a duplicate RTS means the first CTS was lost.
                self.stats.acks_sent += 1;
                let cts = Packet {
                    src: dst,
                    dst: src,
                    seq,
                    flow: None,
                    body: PacketBody::Cts {
                        msg_seq,
                        rts_seq: seq,
                    },
                };
                self.transmit(cts, false);
            }
            PacketBody::Data {
                msg_seq,
                frag,
                frags,
                total_len: _,
                envelope,
                crc,
                chunk,
            } => {
                let key = (src, dst);
                // Integrity gate *before* the ack: a corrupted fragment
                // is dropped silently (nack-as-loss), so the sender's
                // retransmission — whose unacked copy is clean —
                // repairs it. Acking first would discard the only good
                // copy's repair path.
                if crc32(&chunk) != crc {
                    self.stats.corrupt_packets_dropped += 1;
                    if let Some(rec) = self.rec(key) {
                        rec.record_instant(
                            SpanCategory::Corruption,
                            "crc_reject",
                            vec![("seq", ArgValue::U64(seq))],
                        );
                    }
                    return;
                }
                // Selective repeat: every data packet is acked, duplicates
                // included (the original ack may have been lost).
                self.stats.acks_sent += 1;
                let ack = Packet {
                    src: dst,
                    dst: src,
                    seq,
                    flow: None,
                    body: PacketBody::Ack { data_seq: seq },
                };
                self.transmit(ack, false);

                let link = self.link(key);
                let rch = &mut self.receivers[link];
                if !rch.mark_seen(seq) {
                    self.stats.duplicate_packets_dropped += 1;
                    if !self.cfg.dedup && frags == 1 {
                        // At-least-once modelling: hand the duplicate up
                        // (bypassing FIFO release — a real duplicate does
                        // not wait its turn twice) for the layer above to
                        // suppress.
                        self.stats.duplicate_deliveries += 1;
                        self.inboxes[dst as usize].push(Delivery {
                            src,
                            dst,
                            msg_seq,
                            envelope,
                            payload: chunk,
                            duplicate: true,
                            flow,
                        });
                    }
                    return;
                }
                let entry = rch.reassembly.entry(msg_seq).or_insert_with(|| Reassembly {
                    envelope,
                    frags: vec![None; frags as usize],
                    received: 0,
                    flow: None,
                });
                if entry.flow.is_none() {
                    entry.flow = flow;
                }
                if entry.frags[frag as usize].is_none() {
                    entry.frags[frag as usize] = Some(chunk);
                    entry.received += 1;
                }
                if entry.received == frags {
                    let done = rch.reassembly.remove(&msg_seq).expect("present");
                    let env = done.envelope;
                    let flow = done.flow;
                    let payload = done.concat();
                    self.route_completed(key, msg_seq, env, payload, flow);
                }
            }
        }
    }

    /// A message finished reassembling: release it now (unordered) or
    /// in per-pair send order (FIFO).
    fn route_completed(
        &mut self,
        key: (u32, u32),
        msg_seq: u64,
        envelope: Envelope,
        payload: Bytes,
        flow: Option<u64>,
    ) {
        match self.cfg.order {
            DeliveryOrder::Unordered => self.deliver(key, msg_seq, envelope, payload, flow),
            DeliveryOrder::PerPairFifo => {
                let link = self.link(key);
                let rch = &mut self.receivers[link];
                if msg_seq != rch.next_deliver {
                    rch.stash.insert(msg_seq, (envelope, payload, flow));
                    return;
                }
                rch.next_deliver += 1;
                self.deliver(key, msg_seq, envelope, payload, flow);
                loop {
                    let rch = &mut self.receivers[link];
                    let next = rch.next_deliver;
                    let Some((env, pay, fl)) = rch.stash.remove(&next) else {
                        return;
                    };
                    rch.next_deliver += 1;
                    self.deliver(key, next, env, pay, fl);
                }
            }
        }
    }

    fn deliver(
        &mut self,
        key: (u32, u32),
        msg_seq: u64,
        envelope: Envelope,
        payload: Bytes,
        flow: Option<u64>,
    ) {
        self.stats.messages_delivered += 1;
        if let Some(fid) = flow {
            let now = self.now_ns;
            if let Some(rec) = self.rec(key) {
                rec.record_flow(
                    "delivered",
                    obs::FlowId(fid),
                    obs::FlowPhase::Step,
                    now,
                    vec![("msg_seq", ArgValue::U64(msg_seq))],
                );
            }
        }
        self.inboxes[key.1 as usize].push(Delivery {
            src: key.0,
            dst: key.1,
            msg_seq,
            envelope,
            payload,
            duplicate: false,
            flow,
        });
    }

    /// Drain the messages delivered to `dst` so far, in delivery order.
    pub fn take_deliveries(&mut self, dst: u32) -> Vec<Delivery> {
        std::mem::take(&mut self.inboxes[dst as usize])
    }

    /// Process every event due within the next `dt_ns` nanoseconds and
    /// advance the clock to `now + dt_ns`.
    pub fn advance(&mut self, dt_ns: u64) {
        let target = self.now_ns + dt_ns;
        while let Some((at_ns, event)) = self.events.pop_due(target) {
            self.handle(at_ns, event);
        }
        self.now_ns = target;
    }

    /// True when no transfer work is outstanding anywhere: no unacked
    /// or stalled packets, no pending rendezvous, no partial
    /// reassemblies, no stashed-for-order messages. Undrained inboxes
    /// do not count — the consumer owns those.
    pub fn in_flight_idle(&self) -> bool {
        self.senders.iter().all(SenderChannel::idle)
            && self.receivers.iter().all(ReceiverChannel::idle)
    }

    /// [`Self::in_flight_idle`] plus every inbox drained.
    pub fn quiescent(&self) -> bool {
        self.in_flight_idle() && self.inboxes.iter().all(Vec::is_empty)
    }

    /// Drive the event loop until no transfer work is outstanding.
    ///
    /// # Errors
    /// Fails if quiescence needs more than `budget_ns` of simulated
    /// time, if work is outstanding with no event scheduled (a protocol
    /// bug), or if any packet exhausted its retransmission budget.
    pub fn run_until_quiescent(&mut self, budget_ns: u64) -> Result<(), String> {
        let deadline = self.now_ns.saturating_add(budget_ns);
        while !self.in_flight_idle() {
            let Some((at_ns, event)) = self.events.pop_due(deadline) else {
                return Err(match self.events.next_at() {
                    None => "fabric stuck: transfers outstanding but no events scheduled".into(),
                    Some(at_ns) => format!(
                        "fabric did not quiesce within {budget_ns} ns (next event at {at_ns} ns)"
                    ),
                });
            };
            self.handle(at_ns, event);
        }
        if self.dead.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} packet(s) exhausted retransmission: {}",
                self.dead.len(),
                self.dead.join("; ")
            ))
        }
    }

    /// Export the per-link span timelines as Chrome `trace_event` JSON.
    /// `None` unless [`FabricConfig::trace`] was set.
    pub fn trace_json(&self) -> Option<String> {
        if !self.cfg.trace {
            return None;
        }
        let mut tracks: Vec<(String, &SpanRecorder)> = Vec::new();
        if let Some(rec) = &self.cfg_rec {
            tracks.push(("fabric config".to_string(), rec));
        }
        tracks.extend(
            self.recorders
                .iter()
                .map(|((s, d), rec)| (format!("link {s}\u{2192}{d}"), rec)),
        );
        Some(obs::perfetto::export(&tracks))
    }

    /// Render the fabric's counters as a Prometheus text exposition,
    /// with per-link series for retransmission exhaustion.
    pub fn to_prometheus(&self) -> String {
        use obs::prom::{render, Family, FamilyKind, Sample};
        let unlabelled = |v: u64| {
            vec![Sample {
                labels: Vec::new(),
                value: v as f64,
            }]
        };
        let per_link: Vec<Sample> = self
            .exhausted_by_link
            .iter()
            .map(|((s, d), v)| Sample {
                labels: vec![
                    ("src".to_string(), s.to_string()),
                    ("dst".to_string(), d.to_string()),
                ],
                value: *v as f64,
            })
            .collect();
        let s = &self.stats;
        render(&[
            Family::scalar(
                "fabric_messages_sent_total",
                "Messages accepted by the fabric",
                FamilyKind::Counter,
                unlabelled(s.messages_sent),
            ),
            Family::scalar(
                "fabric_messages_delivered_total",
                "Messages fully reassembled and released",
                FamilyKind::Counter,
                unlabelled(s.messages_delivered),
            ),
            Family::scalar(
                "fabric_retransmits_total",
                "Timeout-driven retransmissions",
                FamilyKind::Counter,
                unlabelled(s.retransmits),
            ),
            Family::scalar(
                "fabric_exhausted_retries_total",
                "Packets dead after exhausting retransmission, per directed link",
                FamilyKind::Counter,
                per_link,
            ),
            Family::scalar(
                "fabric_link_down_drops_total",
                "Traversals lost to link-down windows",
                FamilyKind::Counter,
                unlabelled(s.link_down_drops),
            ),
            Family::scalar(
                "fabric_parked_packets_total",
                "Retransmit exhaustions parked on a down link instead of dying",
                FamilyKind::Counter,
                unlabelled(s.parked_packets),
            ),
            Family::scalar(
                "fabric_link_down_events_total",
                "Structured link-down notices emitted",
                FamilyKind::Counter,
                unlabelled(s.link_down_events),
            ),
            Family::scalar(
                "fabric_link_heal_events_total",
                "Structured link-heal notices emitted",
                FamilyKind::Counter,
                unlabelled(s.link_heal_events),
            ),
            Family::scalar(
                "fabric_corruptions_injected_total",
                "Payload bit flips injected in flight",
                FamilyKind::Counter,
                unlabelled(s.corruptions_injected),
            ),
            Family::scalar(
                "fabric_corrupt_packets_dropped_total",
                "Data packets rejected on CRC mismatch (repaired by retransmit)",
                FamilyKind::Counter,
                unlabelled(s.corrupt_packets_dropped),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultConfig;

    fn env(src: u32, tag: u32) -> Envelope {
        Envelope::new(src, tag, 0)
    }

    fn payload(n: usize, fill: u8) -> Bytes {
        Bytes::from(vec![fill; n])
    }

    #[test]
    fn eager_single_fragment_delivers() {
        let mut f = Fabric::new(2, FabricConfig::default());
        f.send(0, 1, env(0, 7), Bytes::from_static(b"hi"));
        f.run_until_quiescent(10_000_000).unwrap();
        let got = f.take_deliveries(1);
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].payload[..], b"hi");
        assert_eq!(got[0].msg_seq, 0);
        assert_eq!(f.stats().eager_messages, 1);
        assert_eq!(f.stats().rendezvous_messages, 0);
        assert!(f.quiescent());
    }

    #[test]
    fn large_payload_takes_rendezvous_and_fragments() {
        let cfg = FabricConfig {
            mtu: 64,
            eager_threshold: 128,
            ..Default::default()
        };
        let mut f = Fabric::new(2, cfg);
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        f.send(0, 1, env(0, 1), Bytes::from(data.clone()));
        f.run_until_quiescent(100_000_000).unwrap();
        let got = f.take_deliveries(1);
        assert_eq!(got.len(), 1);
        assert_eq!(
            got[0].payload.to_vec(),
            data,
            "fragments reassemble in order"
        );
        let s = f.stats();
        assert_eq!(s.rendezvous_messages, 1);
        assert_eq!(
            s.data_packets,
            1000u64.div_ceil(64),
            "ceil(len/mtu) fragments"
        );
    }

    #[test]
    fn zero_length_payload_still_travels() {
        let mut f = Fabric::new(2, FabricConfig::default());
        f.send(0, 1, env(0, 9), Bytes::new());
        f.run_until_quiescent(10_000_000).unwrap();
        let got = f.take_deliveries(1);
        assert_eq!(got.len(), 1);
        assert!(got[0].payload.is_empty());
    }

    #[test]
    fn credits_bound_in_flight_data() {
        let cfg = FabricConfig {
            mtu: 16,
            credits: 2,
            ..Default::default()
        };
        let mut f = Fabric::new(2, cfg);
        f.send(0, 1, env(0, 1), payload(160, 0xAB)); // 10 fragments, 2 credits
        assert!(
            f.stats().credit_stalls >= 8,
            "8 of 10 fragments must wait for credits, saw {}",
            f.stats().credit_stalls
        );
        f.run_until_quiescent(100_000_000).unwrap();
        assert_eq!(f.take_deliveries(1).len(), 1);
        assert!(f.stats().credit_stall_ns > 0);
    }

    #[test]
    fn drops_are_repaired_by_retransmission() {
        let cfg = FabricConfig {
            mtu: 32,
            seed: 11,
            fault: FaultConfig {
                drop_prob: 0.3,
                ..FaultConfig::NONE
            },
            ..Default::default()
        };
        let mut f = Fabric::new(2, cfg);
        for i in 0..20u32 {
            f.send(0, 1, env(0, i), payload(100, i as u8));
        }
        f.run_until_quiescent(1_000_000_000).unwrap();
        let got = f.take_deliveries(1);
        assert_eq!(got.len(), 20, "every message survives the lossy wire");
        let s = f.stats();
        assert!(s.drops_injected > 0, "the fault model must have fired");
        assert!(
            s.retransmits >= s.drops_injected,
            "each drop costs at least one retransmit"
        );
    }

    #[test]
    fn duplicates_are_suppressed_by_default() {
        let cfg = FabricConfig {
            seed: 3,
            fault: FaultConfig {
                duplicate_prob: 0.5,
                ..FaultConfig::NONE
            },
            ..Default::default()
        };
        let mut f = Fabric::new(2, cfg);
        for i in 0..30u32 {
            f.send(0, 1, env(0, i), payload(8, i as u8));
        }
        f.run_until_quiescent(1_000_000_000).unwrap();
        assert_eq!(f.take_deliveries(1).len(), 30, "exactly-once delivery");
        let s = f.stats();
        assert!(s.duplicates_injected > 0);
        assert!(s.duplicate_packets_dropped > 0);
        assert_eq!(s.duplicate_deliveries, 0);
    }

    #[test]
    fn dedup_off_redelivers_and_marks_duplicates() {
        let cfg = FabricConfig {
            dedup: false,
            seed: 5,
            order: DeliveryOrder::Unordered,
            fault: FaultConfig {
                duplicate_prob: 0.6,
                reorder_skew_ns: 2_000,
                ..FaultConfig::NONE
            },
            ..Default::default()
        };
        let mut f = Fabric::new(2, cfg);
        for i in 0..40u32 {
            f.send(0, 1, env(0, i), payload(8, i as u8));
        }
        f.run_until_quiescent(1_000_000_000).unwrap();
        let got = f.take_deliveries(1);
        let dups = got.iter().filter(|d| d.duplicate).count();
        assert!(dups > 0, "at-least-once mode must redeliver some messages");
        assert_eq!(got.len() - dups, 40, "non-duplicate deliveries are exact");
        assert_eq!(f.stats().duplicate_deliveries, dups as u64);
    }

    #[test]
    fn per_pair_fifo_restores_send_order_under_reordering() {
        let cfg = FabricConfig {
            seed: 9,
            order: DeliveryOrder::PerPairFifo,
            fault: FaultConfig {
                reorder_prob: 0.7,
                reorder_skew_ns: 50_000,
                ..FaultConfig::NONE
            },
            ..Default::default()
        };
        let mut f = Fabric::new(2, cfg);
        for i in 0..50u32 {
            f.send(0, 1, env(0, 1), payload(8, i as u8));
        }
        f.run_until_quiescent(1_000_000_000).unwrap();
        let got = f.take_deliveries(1);
        assert!(
            f.stats().reorders_injected > 0,
            "reordering must have fired"
        );
        let fills: Vec<u8> = got.iter().map(|d| d.payload[0]).collect();
        assert_eq!(fills, (0..50).map(|i| i as u8).collect::<Vec<_>>());
    }

    #[test]
    fn unordered_mode_exposes_disorder_but_delivers_everything() {
        let cfg = FabricConfig {
            seed: 13,
            order: DeliveryOrder::Unordered,
            fault: FaultConfig {
                reorder_prob: 0.8,
                reorder_skew_ns: 200_000,
                ..FaultConfig::NONE
            },
            ..Default::default()
        };
        let mut f = Fabric::new(2, cfg);
        for i in 0..60u32 {
            f.send(0, 1, env(0, i), payload(8, i as u8));
        }
        f.run_until_quiescent(1_000_000_000).unwrap();
        let got = f.take_deliveries(1);
        assert_eq!(got.len(), 60);
        let seqs: Vec<u64> = got.iter().map(|d| d.msg_seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_ne!(seqs, sorted, "seed 13 must deliver out of order");
        assert_eq!(
            sorted,
            (0..60).collect::<Vec<u64>>(),
            "every msg_seq exactly once"
        );
    }

    #[test]
    fn lossy_run_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let cfg = FabricConfig {
                mtu: 32,
                seed,
                fault: FaultConfig {
                    drop_prob: 0.1,
                    duplicate_prob: 0.1,
                    reorder_prob: 0.4,
                    reorder_skew_ns: 10_000,
                    corrupt_prob: 0.05,
                },
                ..Default::default()
            };
            let mut f = Fabric::new(3, cfg);
            for i in 0..15u32 {
                f.send(i % 3, (i + 1) % 3, env(i % 3, i), payload(70, i as u8));
            }
            f.run_until_quiescent(1_000_000_000).unwrap();
            let d1 = f.take_deliveries(1);
            let d2 = f.take_deliveries(2);
            (f.stats(), f.now_ns(), d1, d2)
        };
        assert_eq!(run(42), run(42), "same seed, same run");
        let (a, ..) = run(42);
        let (b, ..) = run(43);
        assert_ne!(a, b, "different seeds must differ somewhere");
    }

    #[test]
    fn trace_records_flights_faults_and_stalls() {
        let cfg = FabricConfig {
            mtu: 16,
            credits: 1,
            trace: true,
            seed: 21,
            fault: FaultConfig {
                drop_prob: 0.2,
                ..FaultConfig::NONE
            },
            ..Default::default()
        };
        let mut f = Fabric::new(2, cfg);
        f.send(0, 1, env(0, 4), payload(64, 1));
        f.run_until_quiescent(1_000_000_000).unwrap();
        let json = f.trace_json().expect("tracing on");
        assert!(json.contains("\"cat\":\"packet_flight\""));
        assert!(json.contains("\"cat\":\"credit_stall\""));
        assert!(json.contains("link 0\u{2192}1"));
        // Deterministic re-run exports byte-identically.
        let mut g = Fabric::new(
            2,
            FabricConfig {
                mtu: 16,
                credits: 1,
                trace: true,
                seed: 21,
                fault: FaultConfig {
                    drop_prob: 0.2,
                    ..FaultConfig::NONE
                },
                ..Default::default()
            },
        );
        g.send(0, 1, env(0, 4), payload(64, 1));
        g.run_until_quiescent(1_000_000_000).unwrap();
        assert_eq!(json, g.trace_json().unwrap());
    }

    #[test]
    fn exhausted_retries_surface_as_errors_not_hangs() {
        let cfg = FabricConfig {
            seed: 2,
            max_retransmits: 1,
            retransmit_timeout_ns: 1_000,
            fault: FaultConfig {
                drop_prob: 0.95,
                ..FaultConfig::NONE
            },
            ..Default::default()
        };
        let mut f = Fabric::new(2, cfg);
        for i in 0..10u32 {
            f.send(0, 1, env(0, i), payload(8, 0));
        }
        let err = f.run_until_quiescent(10_000_000_000).unwrap_err();
        assert!(err.contains("exhausted retransmission"), "{err}");
        assert!(f.stats().exhausted_retries > 0);
    }

    #[test]
    fn corruption_is_detected_and_repaired_by_retransmission() {
        let cfg = FabricConfig {
            mtu: 32,
            seed: 17,
            fault: FaultConfig {
                corrupt_prob: 0.3,
                ..FaultConfig::NONE
            },
            ..Default::default()
        };
        let mut f = Fabric::new(2, cfg);
        let data: Vec<u8> = (0..400u32).map(|i| (i * 7) as u8).collect();
        for i in 0..10u32 {
            f.send(0, 1, env(0, i), Bytes::from(data.clone()));
        }
        f.run_until_quiescent(1_000_000_000).unwrap();
        let got = f.take_deliveries(1);
        assert_eq!(got.len(), 10);
        for d in &got {
            assert_eq!(d.payload.to_vec(), data, "payloads arrive bit-exact");
        }
        let s = f.stats();
        assert!(
            s.corruptions_injected > 0,
            "the bit flipper must have fired"
        );
        assert_eq!(
            s.corrupt_packets_dropped, s.corruptions_injected,
            "every flip is caught by the CRC gate"
        );
        assert!(s.retransmits >= s.corrupt_packets_dropped);
    }

    #[test]
    fn link_flaps_lose_traversals_but_heal_preserves_delivery() {
        let cfg = FabricConfig {
            seed: 7,
            link_fault: crate::config::LinkFaultConfig {
                flap_prob: 0.6,
                flap_period_ns: 40_000,
                flap_down_ns: 20_000,
                ..crate::config::LinkFaultConfig::NONE
            },
            ..Default::default()
        };
        let mut f = Fabric::new(2, cfg);
        for i in 0..40u32 {
            f.send(0, 1, env(0, i), payload(64, i as u8));
            f.advance(5_000);
        }
        f.run_until_quiescent(100_000_000_000).unwrap();
        let got = f.take_deliveries(1);
        assert_eq!(got.len(), 40, "flap windows must not lose messages");
        let s = f.stats();
        assert!(s.link_down_drops > 0, "some traversal must hit a window");
        assert_eq!(s.exhausted_retries, 0, "nothing dies on a flapping link");
    }

    #[test]
    fn down_link_parks_exhausted_packets_and_notifies() {
        // A long deterministic down window with a tiny retransmission
        // budget: exhaustion must park (structured notice), not kill,
        // and the heal must resume delivery.
        let lf = crate::config::LinkFaultConfig {
            flap_prob: 1.0,
            flap_period_ns: 1_000_000,
            flap_down_ns: 500_000,
            ..crate::config::LinkFaultConfig::NONE
        };
        let cfg = FabricConfig {
            seed: 3,
            max_retransmits: 2,
            retransmit_timeout_ns: 5_000,
            link_fault: lf,
            ..Default::default()
        };
        let mut f = Fabric::new(2, cfg);
        // Find a moment inside a down window to send from.
        let mut t = 0;
        while !f.link_down_at(0, 1, t) {
            t += 1_000;
        }
        f.advance(t);
        f.send(0, 1, env(0, 1), payload(8, 0xEE));
        f.run_until_quiescent(100_000_000_000).unwrap();
        assert_eq!(f.take_deliveries(1).len(), 1, "heal resumes delivery");
        let s = f.stats();
        assert!(s.parked_packets > 0, "exhaustion on a down link parks");
        assert_eq!(s.exhausted_retries, 0, "parked packets are not dead");
        assert!(s.link_down_events >= 1);
        assert_eq!(s.link_heal_events, s.link_down_events);
        let events = f.take_link_events();
        assert!(
            matches!(events[0], LinkEvent::Down { src: 0, dst: 1, .. }),
            "{events:?}"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, LinkEvent::Healed { src: 0, dst: 1, .. })));
        assert!(f.take_link_events().is_empty(), "take drains");
    }

    #[test]
    fn partitions_cut_cross_side_links_deterministically() {
        let lf = crate::config::LinkFaultConfig {
            partition_prob: 0.5,
            partition_period_ns: 100_000,
            partition_down_ns: 50_000,
            ..crate::config::LinkFaultConfig::NONE
        };
        let cfg = FabricConfig {
            seed: 19,
            link_fault: lf,
            ..Default::default()
        };
        let f = Fabric::new(4, cfg);
        // Pure function of time: the same query answers identically on
        // a fresh fabric, and partitions are symmetric per rank pair.
        let g = Fabric::new(4, cfg);
        let mut saw_down = false;
        for t in (0..2_000_000u64).step_by(7_919) {
            for a in 0..4u32 {
                for b in 0..4u32 {
                    if a == b {
                        continue;
                    }
                    assert_eq!(f.link_down_at(a, b, t), g.link_down_at(a, b, t));
                    assert_eq!(
                        f.link_down_at(a, b, t),
                        f.link_down_at(b, a, t),
                        "partition cuts are symmetric"
                    );
                    saw_down |= f.link_down_at(a, b, t);
                }
            }
        }
        assert!(saw_down, "seed 19 must produce at least one partition");
    }

    #[test]
    fn dead_packets_are_typed_and_exported_to_prometheus() {
        let cfg = FabricConfig {
            seed: 2,
            max_retransmits: 1,
            retransmit_timeout_ns: 1_000,
            fault: FaultConfig {
                drop_prob: 0.95,
                ..FaultConfig::NONE
            },
            ..Default::default()
        };
        let mut f = Fabric::new(2, cfg);
        for i in 0..10u32 {
            f.send(0, 1, env(0, i), payload(8, 0));
        }
        let _ = f.run_until_quiescent(10_000_000_000);
        let dead = f.dead_packets();
        assert_eq!(dead.len(), f.errors().len(), "typed list mirrors strings");
        assert!(!dead.is_empty());
        assert!(dead.iter().all(|d| d.src == 0 && d.dst == 1));
        assert_eq!(dead[0].kind.label(), "data");
        let prom = f.to_prometheus();
        assert!(
            prom.contains("fabric_exhausted_retries_total{src=\"0\",dst=\"1\"}"),
            "{prom}"
        );
        assert!(prom.contains("# TYPE fabric_exhausted_retries_total counter"));
    }

    #[test]
    fn chaos_fabric_run_matches_lossless_deliveries() {
        // The fabric-level chaos differential in miniature: everything
        // composed at once still delivers exactly the lossless set.
        let chaos = FabricConfig {
            mtu: 64,
            seed: 23,
            fault: FaultConfig {
                drop_prob: 0.05,
                duplicate_prob: 0.05,
                reorder_prob: 0.2,
                reorder_skew_ns: 5_000,
                corrupt_prob: 0.05,
            },
            link_fault: crate::config::LinkFaultConfig {
                flap_prob: 0.3,
                flap_period_ns: 50_000,
                flap_down_ns: 10_000,
                partition_prob: 0.2,
                partition_period_ns: 200_000,
                partition_down_ns: 40_000,
            },
            ..Default::default()
        };
        let clean = FabricConfig {
            mtu: 64,
            seed: 23,
            ..Default::default()
        };
        let run = |cfg: FabricConfig| {
            let mut f = Fabric::new(3, cfg);
            for i in 0..30u32 {
                f.send(i % 3, (i + 1) % 3, env(i % 3, i), payload(200, i as u8));
                f.advance(2_000);
            }
            f.run_until_quiescent(1_000_000_000_000).unwrap();
            let mut out = Vec::new();
            for r in 0..3 {
                out.push(
                    f.take_deliveries(r)
                        .into_iter()
                        .map(|d| (d.src, d.dst, d.msg_seq, d.payload))
                        .collect::<Vec<_>>(),
                );
            }
            out
        };
        assert_eq!(run(chaos), run(clean), "chaos is invisible to consumers");
    }

    #[test]
    fn trace_includes_the_fabric_config_instant() {
        let cfg = FabricConfig {
            trace: true,
            ..Default::default()
        };
        let f = Fabric::new(2, cfg);
        let json = f.trace_json().expect("tracing on");
        assert!(json.contains("fabric_config"), "{json}");
        assert!(json.contains("flap_prob"), "{json}");
        assert!(json.contains("corrupt_prob"), "{json}");
    }

    #[test]
    fn advance_is_incremental() {
        let cfg = FabricConfig::default();
        let latency = cfg.link_latency_ns;
        let mut f = Fabric::new(2, cfg);
        f.send(0, 1, env(0, 0), payload(8, 1));
        f.advance(1); // not enough for the flight to land
        assert!(f.take_deliveries(1).is_empty());
        f.advance(latency + 1_000);
        assert_eq!(f.take_deliveries(1).len(), 1);
    }
}
