//! Health supervision and graceful degradation for the sharded service.
//!
//! The supervisor runs on the simulated clock: every
//! [`health_check_interval`](SupervisorConfig::health_check_interval)
//! it observes each shard's responsiveness and queue depth. A shard
//! that stays unresponsive past
//! [`failover_after`](SupervisorConfig::failover_after) — or that
//! crash-loops — has its key range rerouted to the healthiest peer via
//! [`msg_match::ShardPlacement::redirect`]; routes are handed back once
//! the home shard is up and the peer has drained the inherited work.
//! Under sustained overload the supervisor flips a shard into shedding
//! mode: admitted arrivals older than
//! [`shed_deadline`](SupervisorConfig::shed_deadline) are dropped
//! oldest-first (counted as `shed`, distinct from admission `spilled`).

/// Supervisor policy knobs, times in simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Cadence of health/overload observations.
    pub(crate) health_check_interval: f64,
    /// Unresponsive this long → fail the shard's keys over to a peer.
    pub(crate) failover_after: f64,
    /// This many crashes observed on one shard → treat it as
    /// crash-looping and fail over immediately at the next check.
    pub(crate) crash_loop_threshold: u64,
    /// In shedding mode, queued arrivals older than this are dropped
    /// oldest-first at the next dispatch opportunity.
    pub(crate) shed_deadline: f64,
    /// Queue depth (as a fraction of capacity) that counts as an
    /// overload observation.
    pub(crate) overload_depth: f64,
    /// Consecutive overload observations before shedding engages (and
    /// below which it disengages).
    pub(crate) overload_checks: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            health_check_interval: 50e-6,
            failover_after: 150e-6,
            crash_loop_threshold: 3,
            shed_deadline: 400e-6,
            overload_depth: 0.9,
            overload_checks: 3,
        }
    }
}

/// Per-shard supervisor bookkeeping between health checks.
#[derive(Debug, Clone)]
pub(crate) struct Supervisor {
    cfg: SupervisorConfig,
    /// When each shard was first observed unresponsive (None = up).
    down_since: Vec<Option<f64>>,
    /// When each shard was first observed *unreachable* — partitioned
    /// off, state intact — as distinct from unresponsive (None =
    /// reachable). Tracked separately so a partition never feeds
    /// crash-loop detection: the shard is healthy, the path is not.
    unreachable_since: Vec<Option<f64>>,
    /// Crashes observed per shard over the run.
    crash_counts: Vec<u64>,
    /// Consecutive overload observations per shard.
    overload_streak: Vec<u32>,
    /// Whether deadline shedding is engaged per shard.
    shedding: Vec<bool>,
}

impl Supervisor {
    /// A supervisor over `shards` shards with policy `cfg`.
    pub(crate) fn new(shards: usize, cfg: SupervisorConfig) -> Self {
        Supervisor {
            cfg,
            down_since: vec![None; shards],
            unreachable_since: vec![None; shards],
            crash_counts: vec![0; shards],
            overload_streak: vec![0; shards],
            shedding: vec![false; shards],
        }
    }

    /// The policy this supervisor enforces.
    pub(crate) fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// Record an injected crash on `shard` (feeds crash-loop detection).
    pub(crate) fn note_crash(&mut self, shard: usize) {
        self.crash_counts[shard] += 1;
    }

    /// Health check: `shard` observed unresponsive at `now`. Returns
    /// true when the outage has lasted long enough — or the shard is
    /// crash-looping — that its keys should fail over.
    pub(crate) fn note_down(&mut self, shard: usize, now: f64) -> bool {
        let since = *self.down_since[shard].get_or_insert(now);
        now - since >= self.cfg.failover_after || self.crash_looping(shard)
    }

    /// Health check: `shard` observed responsive again.
    pub(crate) fn note_up(&mut self, shard: usize) {
        self.down_since[shard] = None;
    }

    /// Health check: `shard` observed *unreachable* (partitioned) at
    /// `now`. Unlike [`Self::note_down`], this never consults crash-loop
    /// state — the shard is fine, the path is cut — but the same grace
    /// period applies before its keys fail over. Returns true when the
    /// partition has lasted long enough to fail over.
    pub(crate) fn note_unreachable(&mut self, shard: usize, now: f64) -> bool {
        let since = *self.unreachable_since[shard].get_or_insert(now);
        now - since >= self.cfg.failover_after
    }

    /// Health check: `shard` observed reachable again (partition
    /// healed).
    pub(crate) fn note_reachable(&mut self, shard: usize) {
        self.unreachable_since[shard] = None;
    }

    #[cfg(test)]
    /// Is `shard` currently marked unreachable?
    pub(crate) fn is_unreachable(&self, shard: usize) -> bool {
        self.unreachable_since[shard].is_some()
    }

    /// Has `shard` crashed often enough to count as crash-looping?
    pub(crate) fn crash_looping(&self, shard: usize) -> bool {
        self.crash_counts[shard] >= self.cfg.crash_loop_threshold
    }

    /// Overload check: `shard`'s queue holds `depth` of `capacity`
    /// slots. Engages shedding after
    /// [`overload_checks`](SupervisorConfig::overload_checks)
    /// consecutive overloaded observations; one healthy observation
    /// disengages it. Returns the shedding state.
    pub(crate) fn observe_depth(&mut self, shard: usize, depth: usize, capacity: usize) -> bool {
        let overloaded = depth as f64 >= self.cfg.overload_depth * capacity.max(1) as f64;
        if overloaded {
            self.overload_streak[shard] = self.overload_streak[shard].saturating_add(1);
            if self.overload_streak[shard] >= self.cfg.overload_checks {
                self.shedding[shard] = true;
            }
        } else {
            self.overload_streak[shard] = 0;
            self.shedding[shard] = false;
        }
        self.shedding[shard]
    }

    /// Is deadline shedding currently engaged on `shard`?
    pub(crate) fn is_shedding(&self, shard: usize) -> bool {
        self.shedding[shard]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_fires_only_after_the_grace_period() {
        let cfg = SupervisorConfig::default();
        let mut s = Supervisor::new(2, cfg);
        assert!(!s.note_down(0, 1e-4), "first observation starts the clock");
        assert!(!s.note_down(0, 1e-4 + cfg.failover_after * 0.5));
        assert!(s.note_down(0, 1e-4 + cfg.failover_after));
        s.note_up(0);
        assert!(!s.note_down(0, 2e-3), "recovering resets the outage clock");
    }

    #[test]
    fn crash_looping_shortcuts_the_grace_period() {
        let mut s = Supervisor::new(1, SupervisorConfig::default());
        for _ in 0..3 {
            s.note_crash(0);
        }
        assert!(s.crash_looping(0));
        assert!(s.note_down(0, 1e-6), "crash-looping fails over immediately");
    }

    #[test]
    fn unreachable_is_tracked_apart_from_crashes() {
        let cfg = SupervisorConfig::default();
        let mut s = Supervisor::new(2, cfg);
        // Crash-looping shortcut must NOT apply to partitions: the
        // shard is healthy, only the path is cut.
        for _ in 0..5 {
            s.note_crash(0);
        }
        assert!(!s.note_unreachable(0, 1e-6), "grace period still applies");
        assert!(s.is_unreachable(0));
        assert!(
            s.note_unreachable(0, 1e-6 + cfg.failover_after),
            "sustained partition fails over"
        );
        s.note_reachable(0);
        assert!(!s.is_unreachable(0));
        assert!(!s.note_unreachable(0, 1.0), "heal resets the clock");
        assert!(!s.is_unreachable(1));
    }

    #[test]
    fn shedding_needs_a_streak_and_clears_on_recovery() {
        let cfg = SupervisorConfig {
            overload_checks: 3,
            ..Default::default()
        };
        let mut s = Supervisor::new(1, cfg);
        assert!(!s.observe_depth(0, 95, 100));
        assert!(!s.observe_depth(0, 96, 100));
        assert!(s.observe_depth(0, 97, 100), "third strike engages");
        assert!(s.is_shedding(0));
        assert!(!s.observe_depth(0, 10, 100), "one healthy check disengages");
        assert!(!s.is_shedding(0));
    }
}
