//! Deterministic fault injection for the sharded match service.
//!
//! Mirrors the fabric's fault injector one layer up: where
//! [`fabric`]-level faults corrupt *packets*, a [`FaultPlan`] breaks
//! *shards* — the resident communication kernel crashes (losing its
//! device state), hangs (unresponsive but state intact), or degrades
//! (every batch takes a slowdown factor longer). Events are fixed at
//! simulated-time points when the plan is built, seeded like
//! [`fabric::FaultConfig`], so a run with a given plan is exactly
//! reproducible — which the exactly-once differential tests rely on.

use rand::{rngs::StdRng, Rng, SeedableRng};

/// What happens to the victim shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The shard's device dies: resident queue state and any in-flight
    /// batch are lost; recovery restarts the device, restores the last
    /// checkpoint, and replays the journal.
    Crash,
    /// The shard stops responding for this long but keeps its state
    /// (a stuck kernel, not a dead one). Arrivals keep queueing.
    Hang {
        /// Unresponsive window in simulated seconds.
        seconds: f64,
    },
    /// Every batch the shard services takes `factor`× its modelled time
    /// for the next `seconds` of simulated time.
    Slow {
        /// Service-time multiplier (≥ 1).
        factor: f64,
        /// Degraded window in simulated seconds.
        seconds: f64,
    },
    /// The shard is cut off from the supervisor and its peers for this
    /// long: it keeps servicing what it already holds (state intact,
    /// unlike a crash) but is *unreachable* — the supervisor fails its
    /// streams over under an epoch fence, so any work the partitioned
    /// shard completes late is rejected as stale when it heals.
    Partition {
        /// Unreachable window in simulated seconds.
        seconds: f64,
    },
    /// The newest durable checkpoint of every stream on the shard gets
    /// a flipped checksum bit. Harmless until the next crash, when
    /// restore must fall back to an older snapshot and replay a longer
    /// journal window.
    CorruptCheckpoint,
}

/// One injected fault: `kind` strikes `shard` at simulated time `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated time of the fault (seconds).
    pub at: f64,
    /// Victim shard index.
    pub shard: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// Expected fault frequencies for [`FaultPlan::random`], in events per
/// second of simulated time per the whole service (victims are chosen
/// uniformly across shards).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Crashes per simulated second.
    pub crash_rate: f64,
    /// Hangs per simulated second.
    pub hang_rate: f64,
    /// Slow-shard degradations per simulated second.
    pub slow_rate: f64,
    /// Duration of each injected hang (seconds).
    pub hang_seconds: f64,
    /// Service-time multiplier of each slow window.
    pub slow_factor: f64,
    /// Duration of each slow window (seconds).
    pub slow_seconds: f64,
    /// Partitions per simulated second.
    pub partition_rate: f64,
    /// Duration of each partition window (seconds).
    pub partition_seconds: f64,
    /// Checkpoint corruptions per simulated second.
    pub corrupt_rate: f64,
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates {
            crash_rate: 0.0,
            hang_rate: 0.0,
            slow_rate: 0.0,
            hang_seconds: 100e-6,
            slow_factor: 4.0,
            slow_seconds: 200e-6,
            partition_rate: 0.0,
            partition_seconds: 150e-6,
            corrupt_rate: 0.0,
        }
    }
}

/// A deterministic schedule of shard faults, sorted by time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    #[cfg(test)]
    /// The empty plan (no faults).
    pub(crate) fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with exactly these events (sorted by time, then shard).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by(|a, b| {
            a.at.partial_cmp(&b.at)
                .expect("fault times must not be NaN")
                .then(a.shard.cmp(&b.shard))
        });
        FaultPlan { events }
    }

    /// Draw a random plan for a `shards`-wide service running `duration`
    /// simulated seconds: `round(rate * duration)` events of each kind,
    /// each at a uniform time in the middle 90% of the run (faults at
    /// the very edge exercise nothing) on a uniformly chosen shard.
    ///
    /// Same seed, same plan — byte for byte.
    pub fn random(seed: u64, shards: usize, duration: f64, rates: &FaultRates) -> Self {
        assert!(shards > 0, "a fault plan needs at least one shard");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let draw = |rate: f64, rng: &mut StdRng, mk: &dyn Fn() -> FaultKind| {
            let n = (rate * duration).round() as usize;
            (0..n)
                .map(|_| FaultEvent {
                    at: rng.gen_range(0.05 * duration..0.95 * duration),
                    shard: rng.gen_range(0..shards),
                    kind: mk(),
                })
                .collect::<Vec<_>>()
        };
        events.extend(draw(rates.crash_rate, &mut rng, &|| FaultKind::Crash));
        events.extend(draw(rates.hang_rate, &mut rng, &|| FaultKind::Hang {
            seconds: rates.hang_seconds,
        }));
        events.extend(draw(rates.slow_rate, &mut rng, &|| FaultKind::Slow {
            factor: rates.slow_factor,
            seconds: rates.slow_seconds,
        }));
        events.extend(draw(rates.partition_rate, &mut rng, &|| {
            FaultKind::Partition {
                seconds: rates.partition_seconds,
            }
        }));
        events.extend(draw(rates.corrupt_rate, &mut rng, &|| {
            FaultKind::CorruptCheckpoint
        }));
        FaultPlan::new(events)
    }

    /// The schedule, in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    #[cfg(test)]
    /// Number of crash events in the plan.
    pub(crate) fn crash_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == FaultKind::Crash)
            .count()
    }

    #[cfg(test)]
    /// True when the plan holds no events.
    pub(crate) fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_deterministic_per_seed() {
        let rates = FaultRates {
            crash_rate: 2000.0,
            hang_rate: 1000.0,
            slow_rate: 500.0,
            ..Default::default()
        };
        let a = FaultPlan::random(7, 4, 0.002, &rates);
        let b = FaultPlan::random(7, 4, 0.002, &rates);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::random(8, 4, 0.002, &rates);
        assert_ne!(a, c, "different seed, different plan");
        assert_eq!(a.crash_count(), 4, "round(2000 * 0.002)");
        assert_eq!(a.events().len(), 4 + 2 + 1);
    }

    #[test]
    fn events_are_sorted_and_inside_the_run() {
        let rates = FaultRates {
            crash_rate: 5000.0,
            ..Default::default()
        };
        let plan = FaultPlan::random(11, 3, 0.002, &rates);
        let times: Vec<f64> = plan.events().iter().map(|e| e.at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "sorted by time");
        assert!(plan
            .events()
            .iter()
            .all(|e| e.at >= 0.05 * 0.002 && e.at <= 0.95 * 0.002 && e.shard < 3));
    }

    #[test]
    fn explicit_plans_sort_their_events() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: 2e-4,
                shard: 1,
                kind: FaultKind::Crash,
            },
            FaultEvent {
                at: 1e-4,
                shard: 0,
                kind: FaultKind::Hang { seconds: 5e-5 },
            },
        ]);
        assert_eq!(plan.events()[0].shard, 0);
        assert_eq!(plan.crash_count(), 1);
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn partition_and_corruption_events_draw_from_their_rates() {
        let rates = FaultRates {
            partition_rate: 1500.0,
            corrupt_rate: 1000.0,
            ..Default::default()
        };
        let plan = FaultPlan::random(5, 4, 0.002, &rates);
        let partitions = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Partition { .. }))
            .count();
        let corruptions = plan
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::CorruptCheckpoint)
            .count();
        assert_eq!(partitions, 3, "round(1500 * 0.002)");
        assert_eq!(corruptions, 2, "round(1000 * 0.002)");
        assert_eq!(plan.crash_count(), 0);
        assert_eq!(
            plan,
            FaultPlan::random(5, 4, 0.002, &rates),
            "partition/corruption draws are seeded"
        );
    }
}
