//! The messaging domain: GPUs as autonomous communication peers.
//!
//! Section II-C of the paper sketches the deployment this module
//! implements: every GPU keeps message queues in its own memory; a global
//! address space (GAS) spans the node, so a *send* is a remote write into
//! the destination GPU's message queue and a *receive* queries the local
//! queue; one SM per GPU runs a resident **communication kernel** that
//! performs the matching while the other SMs run the application.
//!
//! [`Domain`] is that node model. Each endpoint (GPU) owns a simulated
//! device and a matcher selected by its [`RelaxationConfig`]; calling
//! [`Domain::progress`] runs the communication kernel once, matching the
//! inbox against the posted receives and delivering completions. All
//! simulated kernel time is accounted per endpoint.
//!
//! The domain is `Sync`: per-endpoint state sits behind `parking_lot`
//! mutexes, so application ranks can be driven from one thread per rank
//! ([`Domain::run_ranks`]) while sends lock only the destination
//! endpoint — the moral equivalent of the NVLink remote write.
//!
//! # Progress contract
//!
//! [`Domain::recv_blocking`] never gives up on a count. The calling rank
//! pumps the wire itself for as long as the transport has work in
//! flight — every pump advances *simulated* time, so that is finite
//! whatever the host scheduler does — and otherwise parks on one
//! domain-wide monitor that every [`Domain::send`] and every deposit of
//! arrivals wakes. A parked receive fails only when nothing can ever
//! wake it: every rank is parked or has left its [`Domain::run_ranks`]
//! body while the wire is quiescent. That deadlock is reported to every
//! parked rank at once, naming the stuck request.
//!
//! [`Domain::post_recv`] + [`Domain::progress`] +
//! [`Domain::take_completions`] are the non-blocking form: they never
//! park and never report deadlock, so a single thread driving several
//! ranks polls with them.

use std::sync::Condvar;

use bytes::Bytes;
use obs::SpanRecorder;
use parking_lot::Mutex;

use fabric::{DeliveryOrder, FabricStats};
use msg_match::prelude::*;
use simt_sim::{Gpu, GpuGeneration};

use crate::endpoint::Endpoint;
use crate::message::{Completion, EndpointStats, Message, RecvHandle};
use crate::reorder::ReorderBuffer;
use crate::transport::{
    DirectTransport, FabricTransport, Transport, TransportConfig, TransportDelivery,
};

/// Which matching engine an endpoint's communication kernel (or a
/// service shard) runs: the user-facing spelling of
/// [`EngineChoice`], which states each engine's lattice row, strictness
/// and labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatcherKind {
    /// Fully MPI-compliant matrix scan/reduce.
    Matrix,
    /// Rank-partitioned matrix matching with this many queues
    /// (requires the no-source-wildcard relaxation).
    Partitioned(usize),
    /// Two-level hash table (requires the no-ordering relaxation).
    Hash,
}

impl From<MatcherKind> for EngineChoice {
    fn from(kind: MatcherKind) -> Self {
        match kind {
            MatcherKind::Matrix => EngineChoice::Matrix,
            MatcherKind::Partitioned(queues) => EngineChoice::Partitioned { queues },
            MatcherKind::Hash => EngineChoice::Hash,
        }
    }
}

/// Full construction recipe for a [`Domain`]: who talks, how they match,
/// what semantics the application gets, and what wire carries the bytes.
#[derive(Debug, Clone, Copy)]
pub struct DomainConfig {
    /// Number of GPU endpoints.
    pub ranks: u32,
    /// Simulated device generation of every endpoint.
    pub generation: GpuGeneration,
    /// Matching engine the communication kernels run.
    pub matcher: MatcherKind,
    /// Semantics guaranteed to the application.
    pub relax: RelaxationConfig,
    /// The wire between endpoints.
    pub transport: TransportConfig,
    /// Restore per-source order in user space: the transport is forced
    /// unordered and each endpoint feeds arrivals through a
    /// [`ReorderBuffer`] keyed on the transport's message sequence —
    /// real wire disorder exercising the user-level machinery.
    pub restore_order: bool,
    /// Record per-endpoint causal flow trace points
    /// (send → deposit → matched) of every send for Perfetto export.
    pub trace: bool,
    /// Track-id window for this domain's endpoint tracks inside a merged
    /// trace (pass `obs::tracks::instance_base(i)` when merging several
    /// domains; also set [`fabric::FabricConfig::trace_track_base`] to
    /// the same value for the link tracks).
    pub trace_track_base: u32,
}

impl DomainConfig {
    /// A direct-wire configuration with derived defaults.
    pub fn new(
        ranks: u32,
        generation: GpuGeneration,
        matcher: MatcherKind,
        relax: RelaxationConfig,
    ) -> Self {
        DomainConfig {
            ranks,
            generation,
            matcher,
            relax,
            transport: TransportConfig::Direct,
            restore_order: false,
            trace: false,
            trace_track_base: 0,
        }
    }
}

/// Per-endpoint flow recorder capacity when the domain traces.
const TRACE_CAPACITY: usize = 4096;

/// Why a parked receive fails.
const DEADLOCK: &str =
    "deadlock: the wire is quiescent and every rank is parked in a receive or has exited";

/// What the domain knows about who can still make progress (see the
/// module docs' progress contract).
#[derive(Default)]
struct Liveness {
    /// Bumped by every send, every deposit of arrivals, every rank exit
    /// and every deadlock report.
    epoch: u64,
    /// Ranks waiting on `wake` for `epoch` to move; every bump wakes
    /// them all and resets this.
    parked: u32,
    /// Ranks whose [`Domain::run_ranks`] body has returned or panicked.
    idle: u32,
    /// The epoch the latest deadlock was reported at.
    deadlocked: Option<u64>,
}

impl Liveness {
    /// Move the epoch on and wake every parked rank. With nobody parked
    /// this is two stores: no `notify`, hence no syscall.
    fn bump(&mut self, wake: &Condvar) {
        self.epoch += 1;
        if std::mem::take(&mut self.parked) > 0 {
            wake.notify_all();
        }
    }
}

/// A node of GPUs communicating over a simulated global address space.
pub struct Domain {
    endpoints: Vec<Mutex<Endpoint>>,
    engine: EngineChoice,
    relax: RelaxationConfig,
    transport: Mutex<Box<dyn Transport>>,
    liveness: Mutex<Liveness>,
    /// Signalled, with `liveness` held, by every epoch bump that finds
    /// ranks parked.
    wake: Condvar,
    /// Every send is a traced flow ([`DomainConfig::trace`]).
    trace: bool,
}

impl Domain {
    /// Create a domain of `ranks` GPU endpoints of the given generation,
    /// running `matcher` under `relax` semantics over the default
    /// (direct, instantaneous) wire.
    ///
    /// # Panics
    /// Panics if the matcher requires more relaxation than `relax`
    /// grants (e.g. a hash matcher under full MPI semantics) — that
    /// combination cannot honour the configured guarantees.
    pub fn new(
        ranks: u32,
        generation: GpuGeneration,
        matcher: MatcherKind,
        relax: RelaxationConfig,
    ) -> Self {
        Domain::with_config(DomainConfig::new(ranks, generation, matcher, relax))
    }

    /// Create a domain from a full [`DomainConfig`].
    ///
    /// The wire's delivery order is coupled to the domain's semantics:
    /// with [`DomainConfig::restore_order`] the fabric is forced
    /// [`DeliveryOrder::Unordered`] (endpoints re-sequence in user
    /// space); otherwise an ordering-guaranteeing relaxation forces
    /// [`DeliveryOrder::PerPairFifo`] (the transport provides the order
    /// that full-MPI matching requires of its wire).
    ///
    /// # Panics
    /// Panics on a matcher/relaxation mismatch (see [`Domain::new`]) or
    /// an invalid fabric configuration.
    pub fn with_config(cfg: DomainConfig) -> Self {
        let need = EngineChoice::from(cfg.matcher).relaxation();
        let relax = cfg.relax;
        assert!(
            (!need.partitionable() || relax.partitionable()) && (need.ordering || !relax.ordering),
            "matcher {:?} cannot provide the guarantees of {relax:?}",
            cfg.matcher
        );
        let transport: Box<dyn Transport> = match cfg.transport {
            TransportConfig::Direct => Box::new(DirectTransport::new()),
            TransportConfig::Fabric(mut fc) => {
                if cfg.restore_order {
                    fc.order = DeliveryOrder::Unordered;
                } else if relax.ordering {
                    fc.order = DeliveryOrder::PerPairFifo;
                }
                Box::new(FabricTransport::new(cfg.ranks, fc))
            }
        };
        Domain {
            endpoints: (0..cfg.ranks)
                .map(|rank| {
                    Mutex::new(Endpoint::new(
                        Gpu::new(cfg.generation),
                        cfg.restore_order.then(ReorderBuffer::new),
                        cfg.trace.then(|| {
                            let track = obs::tracks::endpoint(cfg.trace_track_base, rank);
                            SpanRecorder::new(track, TRACE_CAPACITY)
                        }),
                    ))
                })
                .collect(),
            engine: cfg.matcher.into(),
            relax,
            transport: Mutex::new(transport),
            liveness: Mutex::new(Liveness::default()),
            wake: Condvar::new(),
            trace: cfg.trace,
        }
    }

    /// Convenience: full-MPI matrix-matching domain.
    pub fn full_mpi(ranks: u32, generation: GpuGeneration) -> Self {
        Domain::new(
            ranks,
            generation,
            MatcherKind::Matrix,
            RelaxationConfig::FULL_MPI,
        )
    }

    /// Number of endpoints.
    pub fn ranks(&self) -> u32 {
        self.endpoints.len() as u32
    }

    /// Fabric counters, when the wire is a fabric.
    pub fn fabric_stats(&self) -> Option<FabricStats> {
        self.transport.lock().fabric_stats()
    }

    /// Per-link transport trace JSON, when the wire is a traced fabric.
    pub fn transport_trace_json(&self) -> Option<String> {
        self.transport.lock().trace_json()
    }

    /// Per-endpoint flow trace JSON (send / deposit / matched points),
    /// when the domain was configured with [`DomainConfig::trace`].
    /// Merge with [`Self::transport_trace_json`] via
    /// [`obs::perfetto::merge`] for the full admission→wire→match chain.
    pub fn endpoint_trace_json(&self) -> Option<String> {
        let guards: Vec<_> = self.endpoints.iter().map(|e| e.lock()).collect();
        let tracks: Vec<(String, &SpanRecorder)> = guards
            .iter()
            .enumerate()
            .filter_map(|(rank, g)| g.obs.as_ref().map(|rec| (format!("endpoint {rank}"), rec)))
            .collect();
        (!tracks.is_empty()).then(|| obs::perfetto::export(&tracks))
    }

    /// Land transported messages in their destination queues.
    fn deposit(&self, deliveries: Vec<TransportDelivery>, now_ns: u64) {
        for d in deliveries {
            self.endpoints[d.dst as usize]
                .lock()
                .arrive(d.msg_seq, d.message, now_ns);
        }
    }

    /// Send `payload` from `src` to `dst`: a GAS remote write into the
    /// destination's message queue, carried by the configured transport.
    ///
    /// # Panics
    /// Panics on out-of-range ranks.
    pub fn send(&self, src: u32, dst: u32, tag: Tag, comm: CommId, payload: Bytes) {
        assert!(
            src < self.ranks() && dst < self.ranks(),
            "rank out of range"
        );
        let now_ns = if self.trace {
            self.transport.lock().now_ns()
        } else {
            0
        };
        let flow_id = self.endpoints[src as usize]
            .lock()
            .send(src, dst, payload.len(), now_ns);
        let (deliveries, now_ns) = {
            let mut wire = self.transport.lock();
            wire.submit_flow(
                src,
                dst,
                Envelope::new(src, tag, comm),
                payload,
                flow_id.map(|f| f.0),
            );
            // Anything already deliverable (everything, on the direct
            // wire) lands without waiting for a progress call.
            (wire.pump(false), wire.now_ns())
        };
        self.deposit(deliveries, now_ns);
        // Even a send that landed nothing wakes parked ranks: the wire
        // now has work in flight that one of them must pump.
        self.liveness.lock().bump(&self.wake);
    }

    /// Post a receive on `rank`. Returns a handle reported back in the
    /// matching [`Completion`].
    ///
    /// # Errors
    /// Rejects requests that violate the domain's relaxation level
    /// (e.g. `MPI_ANY_SOURCE` in a no-wildcard domain).
    pub fn post_recv(&self, rank: u32, request: RecvRequest) -> Result<RecvHandle, String> {
        self.relax.validate_workload(&[], &[request])?;
        Ok(self.endpoints[rank as usize].lock().post(request))
    }

    /// Run `rank`'s communication kernel once: pump the transport (which
    /// advances a simulated wire's clock), land arrivals, then match the
    /// inbox against the posted receives and queue completions. Returns
    /// the number of new matches.
    ///
    /// # Errors
    /// Propagates matcher/relaxation violations and unrecoverable
    /// transport failures (a transfer that exhausted retransmission).
    pub fn progress(&self, rank: u32) -> Result<usize, String> {
        let (deliveries, health, now_ns) = {
            let mut wire = self.transport.lock();
            let d = wire.pump(true);
            (d, wire.check(), wire.now_ns())
        };
        if !deliveries.is_empty() {
            self.deposit(deliveries, now_ns);
            self.liveness.lock().bump(&self.wake);
        }
        health?;
        let mut ep = self.endpoints[rank as usize].lock();
        ep.progress(self.engine, now_ns)
            .map_err(|e| format!("rank {rank}: {e}"))
    }

    /// Run every endpoint's communication kernel once; returns total new
    /// matches.
    ///
    /// # Errors
    /// Propagates the first endpoint failure.
    pub fn progress_all(&self) -> Result<usize, String> {
        let mut total = 0;
        for rank in 0..self.ranks() {
            total += self.progress(rank)?;
        }
        Ok(total)
    }

    /// Drain completions queued on `rank`.
    pub fn take_completions(&self, rank: u32) -> Vec<Completion> {
        self.endpoints[rank as usize].lock().take_completions()
    }

    /// Post, then make progress until the receive completes (see the
    /// module docs' progress contract). Call it from the one thread that
    /// drives `rank`.
    ///
    /// # Errors
    /// Fails on a relaxation violation, on an unrecoverable transport
    /// failure, or when the receive is deadlocked: the wire is quiescent
    /// and every rank is parked in a blocking receive or has left its
    /// [`Self::run_ranks`] body. The last two name the rank, the handle
    /// and the request, and leave the receive posted.
    pub fn recv_blocking(&self, rank: u32, request: RecvRequest) -> Result<Message, String> {
        let handle = self.post_recv(rank, request)?;
        let outcome = loop {
            // Read the epoch before looking, so that `park` can tell
            // whether anything was sent or landed after the look.
            let seen = self.liveness.lock().epoch;
            if let Err(e) = self.progress(rank) {
                break Err(e);
            }
            if let Some(c) = self.endpoints[rank as usize].lock().take_completion(handle) {
                break Ok(c.message);
            }
            // Work in flight lands after finitely many more pumps.
            if self.transport.lock().quiescent() && !self.park(seen) {
                break Err(DEADLOCK.to_string());
            }
        };
        outcome.map_err(|e| format!("rank {rank}: receive {handle:?} ({request:?}) failed: {e}"))
    }

    /// Wait until the epoch moves past `seen`. Returns false when that
    /// can never happen — every other rank is parked too or has exited —
    /// and tells the ranks already parked the same.
    fn park(&self, seen: u64) -> bool {
        let mut live = self.liveness.lock();
        if live.epoch != seen {
            return true;
        }
        if live.parked + live.idle + 1 >= self.ranks() {
            // The report consumes its epoch: receives that park later
            // wait on a fresh one and cannot mistake it for theirs.
            live.deadlocked = Some(seen);
            live.bump(&self.wake);
            return false;
        }
        live.parked += 1;
        while live.epoch == seen {
            live = self
                .wake
                .wait(live)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        live.deadlocked != Some(seen)
    }

    /// Run `body(rank, domain)` on one scoped thread per rank and return
    /// the results indexed by rank. A rank whose body returns or panics
    /// counts as gone for good: receives of the remaining ranks that
    /// only it could have satisfied fail at once instead of hanging.
    /// (Rank threads spawned any other way have no such guard — if one
    /// dies, its peers stay blocked, as in MPI.) A domain runs one
    /// `run_ranks` at a time.
    ///
    /// # Panics
    /// Resumes the first rank panic once every rank has finished.
    pub fn run_ranks<T, F>(&self, body: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u32, &Domain) -> T + Sync,
    {
        struct RankExit<'d>(&'d Domain);
        impl Drop for RankExit<'_> {
            fn drop(&mut self) {
                let mut live = self.0.liveness.lock();
                live.idle += 1;
                live.bump(&self.0.wake);
            }
        }
        let joined: Vec<std::thread::Result<T>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.ranks())
                .map(|rank| {
                    let body = &body;
                    s.spawn(move || {
                        let _exit = RankExit(self);
                        body(rank, self)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        self.liveness.lock().idle = 0;
        joined
            .into_iter()
            .map(|r| r.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    }

    /// Endpoint statistics snapshot.
    pub fn stats(&self, rank: u32) -> EndpointStats {
        self.endpoints[rank as usize].lock().stats
    }

    /// Are all queues of every endpoint empty, nothing in flight on the
    /// wire, and no arrivals held back for reordering (BSP phase
    /// boundary)?
    pub fn quiescent(&self) -> bool {
        self.endpoints.iter().all(|e| e.lock().is_drained()) && self.transport.lock().quiescent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn send_then_recv_unexpected_path() {
        let d = Domain::full_mpi(2, GpuGeneration::PascalGtx1080);
        d.send(0, 1, 7, 0, payload("ping"));
        let m = d
            .recv_blocking(1, RecvRequest::exact(0, 7, 0))
            .expect("must deliver");
        assert_eq!(&m.payload[..], b"ping");
        assert_eq!(m.envelope.src, 0);
        assert!(
            d.stats(1).kernel_cycles > 0,
            "matching costs simulated time"
        );
        assert!(d.quiescent());
    }

    #[test]
    fn preposted_receive_path() {
        let d = Domain::full_mpi(2, GpuGeneration::MaxwellM40);
        let h = d.post_recv(1, RecvRequest::any_source(3, 0)).unwrap();
        d.send(0, 1, 3, 0, payload("x"));
        d.progress(1).unwrap();
        let c = d.take_completions(1);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].handle, h);
    }

    #[test]
    fn ordering_preserved_under_full_mpi() {
        let d = Domain::full_mpi(2, GpuGeneration::PascalGtx1080);
        for i in 0..10u32 {
            d.send(0, 1, 5, 0, Bytes::from(vec![i as u8]));
        }
        for i in 0..10u32 {
            let m = d.recv_blocking(1, RecvRequest::exact(0, 5, 0)).unwrap();
            assert_eq!(m.payload[0], i as u8, "per-pair FIFO violated");
        }
    }

    #[test]
    fn wildcard_rejected_in_relaxed_domain() {
        let d = Domain::new(
            2,
            GpuGeneration::PascalGtx1080,
            MatcherKind::Partitioned(4),
            RelaxationConfig::NO_WILDCARDS,
        );
        assert!(d.post_recv(0, RecvRequest::any_source(1, 0)).is_err());
        assert!(d.post_recv(0, RecvRequest::exact(1, 1, 0)).is_ok());
    }

    #[test]
    #[should_panic(expected = "cannot provide")]
    fn hash_matcher_cannot_promise_full_mpi() {
        let _ = Domain::new(
            2,
            GpuGeneration::PascalGtx1080,
            MatcherKind::Hash,
            RelaxationConfig::FULL_MPI,
        );
    }

    #[test]
    fn hash_domain_delivers_with_tags_disambiguating() {
        let d = Domain::new(
            2,
            GpuGeneration::PascalGtx1080,
            MatcherKind::Hash,
            RelaxationConfig::UNORDERED,
        );
        for i in 0..16u32 {
            d.send(0, 1, i, 0, Bytes::from(vec![i as u8]));
        }
        // Tags uniquely identify messages, so out-of-order matching is
        // invisible to the application.
        for i in (0..16u32).rev() {
            let m = d.recv_blocking(1, RecvRequest::exact(0, i, 0)).unwrap();
            assert_eq!(m.payload[0], i as u8);
        }
    }

    #[test]
    fn many_ranks_threaded_exchange() {
        let n = 8u32;
        let d = Domain::full_mpi(n, GpuGeneration::PascalGtx1080);
        d.run_ranks(|r, d| {
            let right = (r + 1) % n;
            let left = (r + n - 1) % n;
            d.send(r, right, 1, 0, Bytes::from(vec![r as u8]));
            let m = d.recv_blocking(r, RecvRequest::exact(left, 1, 0)).unwrap();
            assert_eq!(m.payload[0], left as u8);
        });
        assert!(d.quiescent());
    }

    fn fabric_cfg(fault: fabric::FaultConfig, seed: u64) -> TransportConfig {
        TransportConfig::Fabric(fabric::FabricConfig {
            seed,
            fault,
            ..Default::default()
        })
    }

    #[test]
    fn fabric_domain_delivers_like_direct() {
        let mut cfg = DomainConfig::new(
            2,
            GpuGeneration::PascalGtx1080,
            MatcherKind::Matrix,
            RelaxationConfig::FULL_MPI,
        );
        cfg.transport = fabric_cfg(fabric::FaultConfig::NONE, 0);
        let d = Domain::with_config(cfg);
        d.send(0, 1, 7, 0, payload("over the fabric"));
        let m = d
            .recv_blocking(1, RecvRequest::exact(0, 7, 0))
            .expect("must deliver");
        assert_eq!(&m.payload[..], b"over the fabric");
        assert!(d.fabric_stats().unwrap().packets_sent > 0);
        assert!(d.quiescent());
    }

    #[test]
    fn lossy_fabric_domain_keeps_full_mpi_ordering() {
        let mut cfg = DomainConfig::new(
            2,
            GpuGeneration::PascalGtx1080,
            MatcherKind::Matrix,
            RelaxationConfig::FULL_MPI,
        );
        cfg.transport = fabric_cfg(
            fabric::FaultConfig {
                drop_prob: 0.15,
                duplicate_prob: 0.1,
                reorder_prob: 0.4,
                reorder_skew_ns: 30_000,
                corrupt_prob: 0.1,
            },
            17,
        );
        let d = Domain::with_config(cfg);
        for i in 0..12u32 {
            d.send(0, 1, 5, 0, Bytes::from(vec![i as u8]));
        }
        for i in 0..12u32 {
            let m = d.recv_blocking(1, RecvRequest::exact(0, 5, 0)).unwrap();
            assert_eq!(m.payload[0], i as u8, "per-pair FIFO over a lossy wire");
        }
        let fs = d.fabric_stats().unwrap();
        assert!(
            fs.drops_injected > 0,
            "the wire must actually have lost packets"
        );
        assert_eq!(fs.messages_delivered, 12);
    }

    #[test]
    fn restore_order_feeds_reorder_buffer_from_real_disorder() {
        let mut cfg = DomainConfig::new(
            2,
            GpuGeneration::PascalGtx1080,
            MatcherKind::Hash,
            RelaxationConfig::UNORDERED,
        );
        cfg.transport = fabric_cfg(
            fabric::FaultConfig {
                reorder_prob: 0.7,
                reorder_skew_ns: 100_000,
                ..fabric::FaultConfig::NONE
            },
            13,
        );
        cfg.restore_order = true;
        let d = Domain::with_config(cfg);
        for i in 0..24u32 {
            d.send(0, 1, i, 0, Bytes::from(vec![i as u8]));
        }
        // The reorder stage re-sequences arrivals, so inbox order is
        // send order even though the wire delivered out of order.
        for i in 0..24u32 {
            let m = d.recv_blocking(1, RecvRequest::exact(0, i, 0)).unwrap();
            assert_eq!(m.payload[0], i as u8);
        }
        let st = d.stats(1);
        assert!(
            st.reorder_high_water > 1,
            "wire disorder must have exercised the stash, high water {}",
            st.reorder_high_water
        );
        assert!(d.quiescent());
    }

    #[test]
    fn at_least_once_wire_duplicates_are_dropped_by_reorder_stage() {
        let mut cfg = DomainConfig::new(
            2,
            GpuGeneration::PascalGtx1080,
            MatcherKind::Hash,
            RelaxationConfig::UNORDERED,
        );
        cfg.transport = TransportConfig::Fabric(fabric::FabricConfig {
            seed: 29,
            dedup: false,
            fault: fabric::FaultConfig {
                duplicate_prob: 0.5,
                ..fabric::FaultConfig::NONE
            },
            ..Default::default()
        });
        cfg.restore_order = true;
        let d = Domain::with_config(cfg);
        for i in 0..20u32 {
            d.send(0, 1, i, 0, Bytes::from(vec![i as u8]));
        }
        for i in 0..20u32 {
            let m = d.recv_blocking(1, RecvRequest::exact(0, i, 0)).unwrap();
            assert_eq!(m.payload[0], i as u8);
        }
        let st = d.stats(1);
        assert!(
            st.reorder_duplicates > 0,
            "the wire re-delivered, the reorder stage must have dropped"
        );
        assert_eq!(st.matches, 20, "every message matched exactly once");
        assert!(d.quiescent());
    }

    /// Block the calling thread until `n` ranks of `d` are parked. Polls:
    /// parking notifies nobody.
    fn wait_parked(d: &Domain, n: u32) {
        while d.liveness.lock().parked < n {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// One rank's part of an exchange in which every receiver parks
    /// before rank 0, the only sender, moves.
    fn receivers_park_then_rank0_sends(rank: u32, d: &Domain) {
        let n = d.ranks();
        if rank == 0 {
            wait_parked(d, n - 1);
            for dst in 1..n {
                d.send(0, dst, 2, 0, Bytes::from(vec![dst as u8]));
            }
        } else {
            let m = d.recv_blocking(rank, RecvRequest::exact(0, 2, 0)).unwrap();
            assert_eq!(m.payload[0], rank as u8);
        }
    }

    #[test]
    fn deadlock_is_reported_to_every_rank_and_consumes_its_epoch() {
        let n = 3u32;
        let d = Domain::full_mpi(n, GpuGeneration::PascalGtx1080);
        d.run_ranks(|rank, d| {
            // Nobody sends tag 99: every rank parks and the last reports.
            let err = d
                .recv_blocking(rank, RecvRequest::exact((rank + 1) % n, 99, 0))
                .unwrap_err();
            assert!(err.contains("deadlock"), "{err}");
            assert!(err.contains("Tag(99)"), "must name the request: {err}");
            assert!(err.contains("RecvHandle(0)"), "must name the handle: {err}");
            assert!(err.contains(&format!("rank {rank}")), "{err}");

            // Same threads, so no rank exit moves the epoch in between:
            // receivers that park before the sender moves must be woken
            // by its sends, not by the stale report.
            receivers_park_then_rank0_sends(rank, d);
        });
    }

    #[test]
    fn in_flight_send_wakes_a_parked_rank_to_pump_the_wire() {
        let mut cfg = DomainConfig::new(
            2,
            GpuGeneration::PascalGtx1080,
            MatcherKind::Matrix,
            RelaxationConfig::FULL_MPI,
        );
        cfg.transport = fabric_cfg(fabric::FaultConfig::NONE, 3);
        let d = Domain::with_config(cfg);
        // Hand-rolled threads: no rank-exit wake-up can stand in for the
        // send's. The sender never touches the domain again, so the
        // parked receiver has to take over pumping.
        std::thread::scope(|s| {
            let receiver = s.spawn(|| d.recv_blocking(1, RecvRequest::exact(0, 7, 0)));
            wait_parked(&d, 1);
            d.send(0, 1, 7, 0, payload("lands nothing yet"));
            let m = receiver.join().expect("receiver thread").expect("delivery");
            assert_eq!(&m.payload[..], b"lands nothing yet");
        });
        assert!(d.quiescent());
    }

    #[test]
    fn panicked_rank_fails_its_peers_and_leaves_the_domain_usable() {
        let d = Domain::full_mpi(4, GpuGeneration::PascalGtx1080);
        let peer_errs = Mutex::new(Vec::new());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.run_ranks(|rank, d| {
                if rank == 0 {
                    panic!("rank 0 dies before sending");
                }
                let err = d
                    .recv_blocking(rank, RecvRequest::exact(0, 1, 0))
                    .unwrap_err();
                peer_errs.lock().push(err);
            })
        }));
        assert!(panicked.is_err(), "the rank panic must resurface");
        let peer_errs = peer_errs.into_inner();
        assert_eq!(
            peer_errs.len(),
            3,
            "every waiting peer fails: {peer_errs:?}"
        );
        assert!(peer_errs.iter().all(|e| e.contains("deadlock")));

        // The exits are forgotten: in the next run, receivers that park
        // before the sender moves wait for it.
        d.run_ranks(receivers_park_then_rank0_sends);
    }

    #[test]
    fn long_lived_endpoints_reclaim_their_device_arena() {
        for matcher in [
            MatcherKind::Matrix,
            MatcherKind::Partitioned(4),
            MatcherKind::Hash,
        ] {
            let d = Domain::new(
                2,
                GpuGeneration::PascalGtx1080,
                matcher,
                EngineChoice::from(matcher).relaxation(),
            );
            let mut after_first = 0;
            for i in 0..100u32 {
                d.send(0, 1, i, 0, Bytes::new());
                d.post_recv(1, RecvRequest::exact(0, i, 0)).unwrap();
                assert_eq!(d.progress(1).unwrap(), 1, "{matcher:?}: a launch per call");
                if i == 0 {
                    after_first = d.endpoints[1].lock().gpu.mem.allocated_buffers();
                    assert!(after_first > 0);
                }
            }
            let after_100 = d.endpoints[1].lock().gpu.mem.allocated_buffers();
            assert_eq!(after_100, after_first, "{matcher:?}");
        }
    }

    #[test]
    fn stats_track_traffic() {
        let d = Domain::full_mpi(2, GpuGeneration::KeplerK80);
        for _ in 0..5 {
            d.send(0, 1, 0, 0, Bytes::new());
        }
        assert_eq!(d.stats(0).sent, 5);
        assert_eq!(d.stats(1).umq_high_water, 5);
        for _ in 0..5 {
            d.recv_blocking(1, RecvRequest::exact(0, 0, 0)).unwrap();
        }
        assert_eq!(d.stats(1).matches, 5);
    }
}
