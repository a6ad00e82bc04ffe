//! Lock-free per-shard wall-clock profiler for the parallel scheduler.
//!
//! The virtual-time recorders answer "where did the *simulated* time
//! go"; this module answers "where did the *host's* time go" — the
//! question the thread-per-shard scheduler raises. Each scheduler
//! epoch is decomposed into four buckets:
//!
//! * **compute** — a worker thread advancing its domain's shards;
//! * **barrier-wait** — idle time between a worker finishing and the
//!   epoch's slowest worker finishing (the cost of the conservative
//!   horizon);
//! * **backpressure** — a worker blocked handing its domain back over
//!   the bounded result channel;
//! * **supervisor-sync** — the coordinator-side supervisor barrier.
//!
//! Workers add to their shards' lanes with relaxed atomics (no lock,
//! no cross-shard contention); the coordinator adds the residual
//! buckets at the epoch barrier, where the channel hand-off has
//! already ordered every worker add before its reads. Because
//! barrier-wait is computed as *epoch total minus the measured
//! buckets*, the four buckets sum to each shard's measured epoch total
//! exactly, by construction — the invariant the sum-identity test
//! pins.
//!
//! Wall times are nondeterministic by nature, so nothing here may leak
//! into the deterministic artefacts (metrics JSON, completions,
//! virtual-time traces). The profiler's outputs — bucket totals and
//! the optional per-shard wall-clock Perfetto tracks — stay in
//! report-only fields and separate exports.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::sync::SharedSpanRecorder;
use crate::{tracks, ArgValue, SpanCategory};

/// Where one slice of an epoch's wall time went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WallBucket {
    /// A worker advancing shard domains.
    Compute = 0,
    /// Waiting at the epoch barrier for slower workers.
    BarrierWait = 1,
    /// Blocked on the bounded result channel.
    Backpressure = 2,
    /// The coordinator's supervisor barrier.
    SupervisorSync = 3,
}

/// Number of wall buckets.
pub(crate) const BUCKET_COUNT: usize = 4;

impl WallBucket {
    /// All buckets, in lane order.
    pub const ALL: [WallBucket; BUCKET_COUNT] = [
        WallBucket::Compute,
        WallBucket::BarrierWait,
        WallBucket::Backpressure,
        WallBucket::SupervisorSync,
    ];
}

/// One shard's accumulated wall profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WallSnapshot {
    /// Scheduler epochs this shard participated in.
    pub epochs: u64,
    /// Nanoseconds per bucket, in [`WallBucket::ALL`] order.
    pub bucket_ns: [u64; BUCKET_COUNT],
    /// Measured wall nanoseconds across the shard's epochs (the value
    /// the buckets partition).
    pub total_ns: u64,
}

#[derive(Debug, Default)]
struct Lane {
    buckets: [AtomicU64; BUCKET_COUNT],
    total: AtomicU64,
    epochs: AtomicU64,
}

/// Per-shard wall-clock lanes plus optional wall-time trace tracks.
#[derive(Debug)]
pub struct WallProfiler {
    lanes: Vec<Lane>,
    recorders: Option<Vec<SharedSpanRecorder>>,
}

impl WallProfiler {
    /// Profiler over `shards` lanes, no trace tracks.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        WallProfiler {
            lanes: (0..shards).map(|_| Lane::default()).collect(),
            recorders: None,
        }
    }

    /// Profiler that also records one wall-clock span per shard per
    /// epoch into per-shard trace tracks (bounded by `capacity`).
    #[must_use]
    pub fn with_trace(shards: usize, capacity: usize) -> Self {
        WallProfiler {
            lanes: (0..shards).map(|_| Lane::default()).collect(),
            recorders: Some(
                (0..shards)
                    .map(|i| SharedSpanRecorder::new(tracks::wall_shard(i), capacity))
                    .collect(),
            ),
        }
    }

    /// Add `ns` to `shard`'s `bucket` lane. Lock-free (relaxed add):
    /// callable from any worker thread.
    pub fn add(&self, shard: usize, bucket: WallBucket, ns: u64) {
        self.lanes[shard].buckets[bucket as usize].fetch_add(ns, Ordering::Relaxed);
    }

    /// Cumulative nanoseconds per bucket for `shard`. Reads are
    /// relaxed: callers needing exact values read at a barrier (the
    /// coordinator does, after the channel hand-off).
    #[must_use]
    pub fn bucket_ns(&self, shard: usize) -> [u64; BUCKET_COUNT] {
        let mut out = [0u64; BUCKET_COUNT];
        for (o, b) in out.iter_mut().zip(&self.lanes[shard].buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Close one epoch for `shard`: record the measured wall total the
    /// buckets must partition.
    pub fn note_epoch(&self, shard: usize, total_ns: u64) {
        self.lanes[shard]
            .total
            .fetch_add(total_ns, Ordering::Relaxed);
        self.lanes[shard].epochs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one epoch's bucket decomposition as a wall-track span
    /// (no-op without trace tracks). `start_ns` is wall time since the
    /// run began; the span length is the epoch's wall total.
    pub fn record_epoch(&self, shard: usize, epoch: u64, start_ns: u64, durs: [u64; BUCKET_COUNT]) {
        let Some(recs) = &self.recorders else {
            return;
        };
        let total: u64 = durs.iter().sum();
        let mut args: Vec<(&'static str, ArgValue)> = vec![("epoch", ArgValue::U64(epoch))];
        for (b, d) in WallBucket::ALL.iter().zip(durs) {
            args.push((bucket_arg(*b), ArgValue::U64(d)));
        }
        recs[shard].with(|r| {
            r.record_complete(
                SpanCategory::Wall,
                "epoch_wall",
                start_ns,
                total.max(1),
                args,
            );
        });
    }

    /// Snapshot `shard`'s accumulated profile.
    #[must_use]
    pub fn snapshot(&self, shard: usize) -> WallSnapshot {
        WallSnapshot {
            epochs: self.lanes[shard].epochs.load(Ordering::Relaxed),
            bucket_ns: self.bucket_ns(shard),
            total_ns: self.lanes[shard].total.load(Ordering::Relaxed),
        }
    }

    /// The wall-clock trace tracks (empty without [`Self::with_trace`]),
    /// as `(name, recorder snapshot)` pairs ready for Perfetto export.
    #[must_use]
    pub fn wall_tracks(&self) -> Vec<(String, crate::SpanRecorder)> {
        let Some(recs) = &self.recorders else {
            return Vec::new();
        };
        recs.iter()
            .enumerate()
            .map(|(i, r)| (format!("wall shard {i}"), r.snapshot()))
            .collect()
    }
}

fn bucket_arg(b: WallBucket) -> &'static str {
    match b {
        WallBucket::Compute => "compute_ns",
        WallBucket::BarrierWait => "barrier_wait_ns",
        WallBucket::Backpressure => "backpressure_ns",
        WallBucket::SupervisorSync => "supervisor_sync_ns",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_accumulate_order_independently() {
        let p = WallProfiler::new(2);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        p.add(0, WallBucket::Compute, 3);
                        p.add(1, WallBucket::Backpressure, 2);
                    }
                });
            }
        });
        assert_eq!(
            p.snapshot(0).bucket_ns[WallBucket::Compute as usize],
            12_000
        );
        assert_eq!(
            p.snapshot(1).bucket_ns[WallBucket::Backpressure as usize],
            8_000
        );
    }

    #[test]
    fn residual_construction_partitions_the_total() {
        let p = WallProfiler::new(1);
        // A coordinator epoch: worker measured 70ns compute + 10ns
        // backpressure, the supervisor took 5ns, the epoch took 100ns.
        let before = p.bucket_ns(0);
        p.add(0, WallBucket::Compute, 70);
        p.add(0, WallBucket::Backpressure, 10);
        let after = p.bucket_ns(0);
        let worker: u64 = after.iter().sum::<u64>() - before.iter().sum::<u64>();
        let (total, supervisor) = (100u64, 5u64);
        p.add(0, WallBucket::SupervisorSync, supervisor);
        p.add(
            0,
            WallBucket::BarrierWait,
            total.saturating_sub(worker + supervisor),
        );
        p.note_epoch(0, total);
        let s = p.snapshot(0);
        assert_eq!(s.bucket_ns.iter().sum::<u64>(), s.total_ns);
        assert_eq!(s.epochs, 1);
    }

    #[test]
    fn trace_tracks_record_epoch_spans_on_the_wall_window() {
        let p = WallProfiler::with_trace(2, 16);
        p.record_epoch(1, 0, 0, [40, 30, 20, 10]);
        let tracks = p.wall_tracks();
        assert_eq!(tracks.len(), 2);
        assert_eq!(tracks[1].1.track(), tracks::wall_shard(1));
        let ev = tracks[1].1.events().next().expect("span recorded");
        assert_eq!(ev.dur_ns, 100);
        assert_eq!(ev.category, SpanCategory::Wall);
    }
}
