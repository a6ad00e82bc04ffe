//! Checkpointed recovery with exactly-once replay for service shards.
//!
//! Device state is volatile: a crash destroys the shard's resident
//! [`simt_sim::Gpu`] queue state and whatever batch was in flight. What
//! survives is *host-durable* bookkeeping, modelled here per stream (a
//! stream is the arrival sequence a home shard's key range generates):
//!
//! * `admitted` — how many arrivals the service accepted (and journaled);
//! * `committed` — how many of those have had their match *delivered*
//!   (the commit point: once committed, a seq is never re-reported);
//! * a **journal** of `(seq, arrival time)` for everything admitted
//!   since the last durable checkpoint.
//!
//! A periodic **checkpoint** snapshots `(admitted, committed)` — with a
//! CRC32 over the watermarks, and the last
//! [`RecoveryConfig::snapshot_retention`] snapshots retained — and
//! truncates the journal below the *oldest retained* snapshot's
//! committed watermark, so every retained snapshot keeps the journal
//! window it would need. On crash, recovery restarts the device,
//! restores the newest snapshot whose checksum verifies (a corrupted
//! checkpoint falls back to the next older one and replays a longer
//! journal window), and replays the journal: entries below the live
//! `committed` may be re-matched but are suppressed at the commit point
//! (counted as duplicates), entries in `[committed, admitted)` are
//! re-queued and matched as if the crash never happened. The
//! post-recovery *committed* set is therefore byte-identical to a
//! fault-free run — exactly-once delivery built from at-least-once
//! replay plus idempotent commit, even under checkpoint corruption.

use std::collections::VecDeque;

/// Costs and cadence of the checkpoint/journal machinery, all in
/// simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Interval between durable snapshots of a shard's stream state.
    pub(crate) checkpoint_interval: f64,
    /// Device time a snapshot occupies the shard (it pauses matching).
    pub(crate) checkpoint_cost: f64,
    /// Time to boot a fresh device after a crash, before replay starts.
    pub(crate) restart_latency: f64,
    /// Replay cost per journaled entry re-admitted to the queue.
    pub(crate) replay_cost_per_entry: f64,
    /// Durable snapshots retained per stream. Restore prefers the
    /// newest whose checksum verifies; each corrupted snapshot falls
    /// back one generation (and replays a longer journal window).
    pub(crate) snapshot_retention: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            checkpoint_interval: 250e-6,
            checkpoint_cost: 2e-6,
            restart_latency: 50e-6,
            replay_cost_per_entry: 20e-9,
            snapshot_retention: 3,
        }
    }
}

/// One durable, integrity-checked snapshot of a stream's watermarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Snapshot {
    /// `admitted` at snapshot time.
    pub(crate) admitted: u64,
    /// `committed` at snapshot time.
    pub(crate) committed: u64,
    /// CRC32 over the two watermarks, written with the snapshot and
    /// verified at restore. Corruption (an injected bit flip, a torn
    /// write) makes verification fail and restore fall back.
    pub(crate) crc: u32,
}

impl Snapshot {
    fn digest(admitted: u64, committed: u64) -> u32 {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&admitted.to_le_bytes());
        bytes[8..].copy_from_slice(&committed.to_le_bytes());
        fabric::crc32(&bytes)
    }

    /// A snapshot of the given watermarks with a freshly computed
    /// checksum.
    pub(crate) fn new(admitted: u64, committed: u64) -> Self {
        Snapshot {
            admitted,
            committed,
            crc: Self::digest(admitted, committed),
        }
    }

    /// True when the stored checksum matches the watermarks.
    pub(crate) fn is_valid(&self) -> bool {
        self.crc == Self::digest(self.admitted, self.committed)
    }
}

/// Host-durable state of one arrival stream: watermarks, the last
/// checkpoint's watermarks, and the replay journal covering everything
/// admitted since that checkpoint.
#[derive(Debug, Clone, Default)]
pub(crate) struct StreamState {
    /// Arrivals admitted (journaled) so far; the next seq to admit.
    pub(crate) admitted: u64,
    /// Matches delivered so far; seqs below this are never re-reported.
    pub(crate) committed: u64,
    /// `admitted` at the last checkpoint.
    pub(crate) ckpt_admitted: u64,
    /// `committed` at the last checkpoint.
    pub(crate) ckpt_committed: u64,
    /// Retained snapshots, oldest first (the last mirrors
    /// `ckpt_admitted`/`ckpt_committed`).
    pub(crate) snapshots: VecDeque<Snapshot>,
    /// `(seq, arrival time)` for every seq the *oldest retained*
    /// snapshot could need to replay, in seq order — everything a crash
    /// (plus checkpoint corruption) could force us to re-match. Without
    /// fault tolerance nothing is replayed, and the journal holds just
    /// the uncommitted window `[committed, admitted)` that a migration
    /// hands over.
    pub(crate) journal: VecDeque<(u64, f64)>,
}

impl StreamState {
    /// Admit (and journal) the next arrival at time `t`; returns its seq.
    pub(crate) fn admit(&mut self, t: f64) -> u64 {
        let seq = self.admitted;
        self.journal.push_back((seq, t));
        self.admitted += 1;
        seq
    }

    /// Take a durable snapshot, keeping the last `retention` of them.
    /// The journal is truncated below the *oldest retained* snapshot's
    /// committed watermark — not the newest — so that falling back to
    /// any retained snapshot still finds every entry it needs to
    /// replay. (Truncating at the newest watermark, as this used to,
    /// strands older snapshots without their replay window.)
    pub(crate) fn checkpoint(&mut self, retention: usize) {
        self.ckpt_admitted = self.admitted;
        self.ckpt_committed = self.committed;
        self.snapshots
            .push_back(Snapshot::new(self.admitted, self.committed));
        while self.snapshots.len() > retention.max(1) {
            self.snapshots.pop_front();
        }
        let floor = self
            .snapshots
            .front()
            .map_or(self.committed, |s| s.committed);
        self.truncate_journal(floor);
    }

    /// Drop the journal entries below seq `floor`.
    pub(crate) fn truncate_journal(&mut self, floor: u64) {
        while matches!(self.journal.front(), Some(&(seq, _)) if seq < floor) {
            self.journal.pop_front();
        }
    }

    /// Flip a bit in the newest snapshot's stored checksum (corruption
    /// injection). Returns false when no snapshot exists to corrupt.
    pub(crate) fn corrupt_latest_snapshot(&mut self) -> bool {
        match self.snapshots.back_mut() {
            Some(s) => {
                s.crc ^= 1;
                true
            }
            None => false,
        }
    }

    /// The snapshot a restore would start from: the newest retained
    /// snapshot whose checksum verifies, with the number of corrupted
    /// snapshots skipped on the way. With no (valid) snapshot at all,
    /// restore starts from the zero state — only reachable before the
    /// first checkpoint, when the journal still covers everything.
    pub(crate) fn restore_snapshot(&self) -> (Snapshot, u64) {
        let mut fallbacks = 0;
        for s in self.snapshots.iter().rev() {
            if s.is_valid() {
                return (*s, fallbacks);
            }
            fallbacks += 1;
        }
        (Snapshot::new(0, 0), fallbacks)
    }

    #[cfg(test)]
    /// Admitted arrivals not yet committed (the queue a recovery must
    /// reconstruct).
    pub(crate) fn outstanding(&self) -> u64 {
        self.admitted - self.committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_covers_exactly_the_replayable_window() {
        let mut s = StreamState::default();
        for i in 0..10 {
            assert_eq!(s.admit(i as f64 * 1e-6), i);
        }
        assert_eq!(s.outstanding(), 10);
        s.committed = 6;
        s.checkpoint(1);
        assert_eq!((s.ckpt_admitted, s.ckpt_committed), (10, 6));
        let seqs: Vec<u64> = s.journal.iter().map(|&(q, _)| q).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "journal starts at ckpt_committed");
        assert_eq!(s.outstanding(), 4);
    }

    #[test]
    fn checkpoint_is_idempotent_and_monotone() {
        let mut s = StreamState::default();
        for i in 0..4 {
            s.admit(i as f64);
        }
        s.committed = 2;
        s.checkpoint(1);
        let before = s.journal.clone();
        s.checkpoint(1);
        assert_eq!(s.journal, before, "re-checkpointing changes nothing");
        s.committed = 4;
        s.checkpoint(1);
        assert!(s.journal.is_empty(), "fully committed, nothing to replay");
    }

    #[test]
    fn default_costs_are_ordered_sanely() {
        let c = RecoveryConfig::default();
        assert!(c.checkpoint_cost < c.checkpoint_interval);
        assert!(c.replay_cost_per_entry < c.restart_latency);
        assert!(c.snapshot_retention >= 1);
    }

    #[test]
    fn snapshots_carry_verifiable_checksums() {
        let snap = Snapshot::new(10, 6);
        assert!(snap.is_valid());
        let mut bad = snap;
        bad.crc ^= 0x8000_0000;
        assert!(!bad.is_valid());
        let mut tampered = snap;
        tampered.committed += 1;
        assert!(!tampered.is_valid(), "watermark edits break the digest");
    }

    #[test]
    fn journal_retention_covers_the_oldest_retained_snapshot() {
        // Regression: truncating at the *newest* committed watermark
        // used to strand older snapshots without their replay window.
        let mut s = StreamState::default();
        for i in 0..10 {
            s.admit(i as f64 * 1e-6);
        }
        s.committed = 4;
        s.checkpoint(3); // snapshot A @ committed 4
        for i in 10..20 {
            assert_eq!(s.admit(i as f64 * 1e-6), i);
        }
        s.committed = 12;
        s.checkpoint(3); // snapshot B @ committed 12
        assert_eq!(s.snapshots.len(), 2);
        let first = s.journal.front().unwrap().0;
        assert_eq!(first, 4, "journal must reach back to snapshot A");

        // Corrupt the newest snapshot: restore must fall back to A and
        // still find every entry in [A.committed, admitted) journaled.
        assert!(s.corrupt_latest_snapshot());
        let (snap, fallbacks) = s.restore_snapshot();
        assert_eq!(fallbacks, 1);
        assert_eq!((snap.admitted, snap.committed), (10, 4));
        let seqs: Vec<u64> = s.journal.iter().map(|&(q, _)| q).collect();
        assert_eq!(seqs, (4..20).collect::<Vec<_>>());

        // With one more checkpoint at retention 3, A is still retained;
        // at retention 1 only the newest survives and the journal
        // tightens to its window.
        s.committed = 18;
        s.checkpoint(1);
        assert_eq!(s.snapshots.len(), 1);
        assert_eq!(s.journal.front().unwrap().0, 18);
        let (snap, fallbacks) = s.restore_snapshot();
        assert_eq!(fallbacks, 0);
        assert_eq!(snap.committed, 18);
    }

    #[test]
    fn restore_with_every_snapshot_corrupt_reports_all_fallbacks() {
        let mut s = StreamState::default();
        s.admit(0.0);
        s.committed = 1;
        s.checkpoint(2);
        s.admit(1.0);
        s.checkpoint(2);
        for snap in s.snapshots.iter_mut() {
            snap.crc ^= 1;
        }
        let (snap, fallbacks) = s.restore_snapshot();
        assert_eq!(fallbacks, 2);
        assert_eq!((snap.admitted, snap.committed), (0, 0));
    }
}
