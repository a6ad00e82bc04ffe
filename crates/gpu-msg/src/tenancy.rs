//! Multi-tenancy: per-tenant QoS admission and live resharding.
//!
//! The sharded service of [`crate::service`] has, until now, one
//! implicit tenant: every stream is admitted on equal terms and the
//! slot → shard map is fixed at construction. This module adds the
//! tenant dimension *above* communicators — each tenant owns a set of
//! communicators and a set of stream slots — with isolation enforced
//! entirely at admission, never inside the matching kernels (MPIX
//! Streams' "no shared hot-path state" argument: the kernels stay
//! tenant-blind, so the relaxation lattice and every engine are
//! untouched).
//!
//! Two mechanisms:
//!
//! * **QoS admission** ([`QosClass`], [`TokenBucket`], [`StreamQos`]):
//!   each stream carries a token bucket refilled at its tenant's quota
//!   rate. Admission consults the bucket *before* touching the shard
//!   queue, and a policy drop is accounted as a *shed* against the
//!   arriving stream's own tenant — extending the existing
//!   spill/shed split of [`crate::metrics::OverflowStats`] so one
//!   tenant's overload can only ever shed its own traffic. Fill limits
//!   reserve queue headroom: burstable traffic over quota may borrow up
//!   to `burstable_fill` of the queue, best-effort traffic only up to
//!   `best_effort_fill`, and the headroom above `burstable_fill` is
//!   reserved for conformant (in-quota) arrivals.
//!
//! * **Live resharding** ([`ReshardPolicy`], [`ReshardPlanner`]): a
//!   planner observes per-shard backlogs at epoch barriers, plans a
//!   migration of one slot from the hottest to the coldest shard, and
//!   the scheduler executes it as a drain-transfer-handback sequence
//!   that repurposes the failover journal-window transfer (see
//!   `DESIGN.md` §13): the slot's undispatched queue entries are
//!   dropped at the source, the journal window `[committed, admitted)`
//!   is re-enqueued at the target in admission order, and the slot's
//!   durable home is rebound via
//!   [`msg_match::ShardPlacement::migrate`]. Because every step runs
//!   at a barrier from barrier-visible state, the sequence is
//!   byte-deterministic per seed under both schedulers.

/// Service level a tenant is admitted under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// In-quota traffic is admitted whenever the queue has space; over
    /// quota traffic is shed (the guarantee is the quota, not more).
    Guaranteed,
    /// In-quota traffic is admitted like guaranteed; over-quota traffic
    /// may borrow idle queue capacity up to the burstable fill limit.
    Burstable,
    /// No reservation: admitted only while the queue is below the
    /// best-effort fill limit, shed otherwise.
    BestEffort,
}

impl QosClass {
    /// Stable lowercase label (Prometheus `class` label value).
    #[must_use]
    pub(crate) fn label(self) -> &'static str {
        match self {
            QosClass::Guaranteed => "guaranteed",
            QosClass::Burstable => "burstable",
            QosClass::BestEffort => "best_effort",
        }
    }
}

/// Shape of a stream's arrival process in simulated time.
///
/// `Uniform` reproduces, bit for bit, the arithmetic the scheduler used
/// before tenancy existed (`k / rate` arrival times), so single-tenant
/// runs stay byte-identical. `Bursty` compresses each period's arrivals
/// into the leading `duty` fraction of the period: the long-run rate is
/// unchanged but the instantaneous in-burst rate is `rate / duty`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Evenly spaced arrivals at the stream rate.
    Uniform,
    /// On/off arrivals: each `period` seconds of traffic arrives within
    /// the first `duty * period` seconds of the cycle.
    Bursty {
        /// Cycle length in simulated seconds.
        period: f64,
        /// Fraction of the cycle that carries traffic, in `(0, 1]`.
        duty: f64,
    },
}

impl ArrivalPattern {
    /// Map a uniform-timeline instant onto the bursty timeline.
    fn burstify(period: f64, duty: f64, u: f64) -> f64 {
        let cycle = (u / period).floor();
        let frac = u - cycle * period;
        cycle * period + frac * duty
    }

    /// Arrival time of the `k`-th arrival (1-based) at `rate` msgs/s.
    /// Strictly increasing in `k` for any valid pattern.
    #[must_use]
    pub(crate) fn arrival_time(&self, k: u64, rate: f64) -> f64 {
        match *self {
            ArrivalPattern::Uniform => k as f64 / rate,
            ArrivalPattern::Bursty { period, duty } => {
                Self::burstify(period, duty, k as f64 / rate)
            }
        }
    }

    /// How many arrivals are due at or before `horizon`.
    #[must_use]
    pub(crate) fn due(&self, rate: f64, horizon: f64) -> u64 {
        match *self {
            ArrivalPattern::Uniform => (rate * horizon) as u64,
            ArrivalPattern::Bursty { period, duty } => {
                if horizon <= 0.0 {
                    return 0;
                }
                let cycle = (horizon / period).floor();
                let frac = horizon - cycle * period;
                // Within the current cycle the burst spans
                // [0, duty * period); past it the whole cycle is due.
                let u_eq = cycle * period + (frac / duty).min(period);
                (rate * u_eq) as u64
            }
        }
    }

    /// Wake time for the arrival after `seen` arrivals (the half-step
    /// offset matches the scheduler's historical wake arithmetic).
    #[must_use]
    pub(crate) fn wake_after(&self, seen: u64, rate: f64) -> f64 {
        match *self {
            ArrivalPattern::Uniform => (seen as f64 + 0.5) / rate,
            ArrivalPattern::Bursty { period, duty } => {
                Self::burstify(period, duty, (seen as f64 + 0.5) / rate)
            }
        }
    }

    /// Panics unless the pattern's parameters are usable.
    pub(crate) fn validate(&self) {
        if let ArrivalPattern::Bursty { period, duty } = *self {
            assert!(period > 0.0, "bursty period must be positive");
            assert!(
                duty > 0.0 && duty <= 1.0,
                "bursty duty must lie in (0, 1], got {duty}"
            );
        }
    }
}

/// Deterministic token bucket: `rate` tokens/s refill, `burst` cap.
///
/// State advances only on [`TokenBucket::take`], keyed to the arrival's
/// simulated time — a pure function of the arrival sequence, so quota
/// decisions are identical across schedulers and runs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: f64,
}

impl TokenBucket {
    /// Full bucket refilled at `rate` tokens/s, holding at most
    /// `burst` tokens.
    #[must_use]
    pub(crate) fn new(rate: f64, burst: f64) -> Self {
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last: 0.0,
        }
    }

    /// Refill to simulated time `t` and try to take one token.
    pub(crate) fn take(&mut self, t: f64) -> bool {
        if t > self.last {
            self.tokens = (self.tokens + (t - self.last) * self.rate).min(self.burst);
            self.last = t;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Admission decision for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitVerdict {
    /// Enqueue the arrival.
    Admit,
    /// Reject for lack of physical queue space (counts as a spill).
    Spill,
    /// Reject by tenant policy — quota exceeded or fill limit reached
    /// (counts as a shed against the arriving tenant only).
    Shed,
}

/// Queue fill limits, as fractions of the shard queue capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FillLimits {
    /// Over-quota burstable traffic may fill the queue up to here.
    pub(crate) burstable: f64,
    /// Best-effort traffic may fill the queue up to here.
    pub(crate) best_effort: f64,
}

impl Default for FillLimits {
    fn default() -> Self {
        FillLimits {
            burstable: 0.9,
            best_effort: 0.6,
        }
    }
}

/// Per-stream admission state: the tenant's class plus this stream's
/// slice of the tenant's token-bucket quota.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StreamQos {
    /// The owning tenant's service class.
    pub(crate) class: QosClass,
    /// This stream's token bucket (`None` = unmetered).
    pub(crate) bucket: Option<TokenBucket>,
}

impl StreamQos {
    /// Decide one arrival at simulated time `t`, given the target
    /// shard's current backlog and physical queue capacity.
    pub(crate) fn admit(
        &mut self,
        t: f64,
        backlog: usize,
        capacity: usize,
        fill: FillLimits,
    ) -> AdmitVerdict {
        let conformant = self.bucket.as_mut().is_none_or(|b| b.take(t));
        let limit = |f: f64| ((f * capacity as f64) as usize).min(capacity);
        match self.class {
            QosClass::Guaranteed => {
                if !conformant {
                    AdmitVerdict::Shed
                } else if backlog >= capacity {
                    AdmitVerdict::Spill
                } else {
                    AdmitVerdict::Admit
                }
            }
            QosClass::Burstable => {
                if conformant {
                    if backlog >= capacity {
                        AdmitVerdict::Spill
                    } else {
                        AdmitVerdict::Admit
                    }
                } else if backlog >= limit(fill.burstable) {
                    AdmitVerdict::Shed
                } else {
                    AdmitVerdict::Admit
                }
            }
            QosClass::BestEffort => {
                if !conformant || backlog >= limit(fill.best_effort) {
                    AdmitVerdict::Shed
                } else {
                    AdmitVerdict::Admit
                }
            }
        }
    }
}

/// One tenant's declared workload and service level.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Display name (Prometheus `tenant` label value).
    pub name: String,
    /// Service class.
    pub class: QosClass,
    /// Fraction of the service's aggregate arrival rate this tenant
    /// offers (normalised over all tenants at construction).
    pub share: f64,
    /// Stream slots the tenant's traffic is spread over.
    pub streams: usize,
    /// Token-bucket refill in msgs/s across the whole tenant (divided
    /// evenly over its streams); `0` leaves the tenant unmetered.
    pub quota_rate: f64,
    /// Token-bucket depth in msgs across the whole tenant.
    pub burst: f64,
    /// Arrival process shape.
    pub pattern: ArrivalPattern,
    /// Home shards the tenant's slots are spread over round-robin;
    /// empty means all shards.
    pub shard_set: Vec<usize>,
}

impl TenantSpec {
    /// A one-stream, unmetered, uniform tenant with the given share.
    #[must_use]
    pub fn new(name: &str, class: QosClass, share: f64) -> Self {
        TenantSpec {
            name: name.to_string(),
            class,
            share,
            streams: 1,
            quota_rate: 0.0,
            burst: 0.0,
            pattern: ArrivalPattern::Uniform,
            shard_set: Vec::new(),
        }
    }
}

/// When and how aggressively the reshard planner moves slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReshardPolicy {
    /// Planner cadence in simulated seconds (its ticks become epoch
    /// barriers, like supervisor health checks).
    pub tick: f64,
    /// Minimum hot-minus-cold backlog gap (in queued entries) before a
    /// migration is planned.
    pub min_imbalance: usize,
    /// Stop after this many completed migrations (`0` disables).
    pub max_migrations: usize,
}

impl Default for ReshardPolicy {
    fn default() -> Self {
        ReshardPolicy {
            tick: 200e-6,
            min_imbalance: 64,
            max_migrations: 4,
        }
    }
}

/// The whole tenancy configuration layered onto a sharded service.
#[derive(Debug, Clone, PartialEq)]
pub struct TenancyConfig {
    /// Tenants, in declaration order (tenant id = index).
    pub tenants: Vec<TenantSpec>,
    /// Queue fill limits shared by every shard.
    pub fill: FillLimits,
    /// Live resharding policy (`None` = static placement).
    pub reshard: Option<ReshardPolicy>,
}

impl TenancyConfig {
    /// Config over the given tenants, default fill limits, no
    /// resharding.
    #[must_use]
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        TenancyConfig {
            tenants,
            fill: FillLimits::default(),
            reshard: None,
        }
    }

    /// Panics unless the config is usable over `shards` shards.
    pub(crate) fn validate(&self, shards: usize) {
        assert!(
            !self.tenants.is_empty(),
            "tenancy needs at least one tenant"
        );
        assert!(
            self.tenants.len() <= u16::MAX as usize,
            "tenant ids must fit a communicator id"
        );
        for t in &self.tenants {
            assert!(t.streams > 0, "tenant {} declares no streams", t.name);
            assert!(t.share >= 0.0, "tenant {} has a negative share", t.name);
            t.pattern.validate();
            for &s in &t.shard_set {
                assert!(s < shards, "tenant {} pins shard {s} of {shards}", t.name);
            }
        }
        assert!(
            self.tenants.iter().map(|t| t.share).sum::<f64>() > 0.0,
            "tenant shares must not all be zero"
        );
        assert!(self.fill.burstable > 0.0 && self.fill.burstable <= 1.0);
        assert!(self.fill.best_effort > 0.0 && self.fill.best_effort <= 1.0);
    }

    /// Total declared share (the normalisation denominator).
    #[must_use]
    pub(crate) fn total_share(&self) -> f64 {
        self.tenants.iter().map(|t| t.share).sum()
    }

    /// Total stream slots over all tenants.
    #[must_use]
    pub(crate) fn total_streams(&self) -> usize {
        self.tenants.iter().map(|t| t.streams).sum()
    }

    /// Slot → home-shard map: each tenant's slots are spread
    /// round-robin over its shard set (all shards when unset), slots
    /// ordered tenant-major.
    #[must_use]
    pub(crate) fn assignments(&self, shards: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.total_streams());
        for t in &self.tenants {
            let all: Vec<usize>;
            let set: &[usize] = if t.shard_set.is_empty() {
                all = (0..shards).collect();
                &all
            } else {
                &t.shard_set
            };
            for j in 0..t.streams {
                out.push(set[j % set.len()]);
            }
        }
        out
    }

    /// Tenant id of each slot, tenant-major like
    /// [`TenancyConfig::assignments`].
    #[must_use]
    pub(crate) fn slot_tenants(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.total_streams());
        for (id, t) in self.tenants.iter().enumerate() {
            out.extend(std::iter::repeat_n(id as u32, t.streams));
        }
        out
    }
}

/// A migration the planner has committed to but not yet executed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PlannedMigration {
    /// Stream slot being moved.
    pub(crate) slot: usize,
    /// Current home shard.
    pub(crate) from: usize,
    /// Destination home shard.
    pub(crate) to: usize,
    /// Barrier time the plan was made at.
    pub(crate) planned_at: f64,
}

/// Detects hot/cold shard imbalance at epoch barriers and plans one
/// migration at a time. The scheduler owns execution; the planner owns
/// the decision, which is a pure function of barrier-visible backlogs —
/// hence identical under `GlobalClock` and `ThreadPerShard`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReshardPlanner {
    /// The policy this planner runs.
    pub(crate) policy: ReshardPolicy,
    /// The in-flight plan, if any (at most one at a time: migrations
    /// serialise, which keeps the drain-transfer-handback windows
    /// disjoint).
    pub(crate) pending: Option<PlannedMigration>,
    /// Migrations completed so far.
    pub(crate) completed: u64,
    /// Plans abandoned because an endpoint died before execution.
    pub(crate) aborted: u64,
    /// Next planner barrier, in simulated seconds.
    pub(crate) next_tick: f64,
}

impl ReshardPlanner {
    /// Planner with its first tick one cadence in.
    #[must_use]
    pub(crate) fn new(policy: ReshardPolicy) -> Self {
        ReshardPlanner {
            policy,
            pending: None,
            completed: 0,
            aborted: 0,
            next_tick: policy.tick,
        }
    }

    /// May this planner still start new migrations?
    #[must_use]
    pub(crate) fn may_plan(&self) -> bool {
        self.pending.is_none() && self.completed < self.policy.max_migrations as u64
    }

    /// Pick a (hot, cold) shard pair from per-shard backlogs
    /// (`None` = ineligible: down, redirected, or mid-recovery).
    /// Ties break toward the lowest shard index, so the choice is
    /// deterministic.
    #[must_use]
    pub(crate) fn pick(&self, backlogs: &[Option<usize>]) -> Option<(usize, usize)> {
        let mut hot: Option<(usize, usize)> = None;
        let mut cold: Option<(usize, usize)> = None;
        for (x, b) in backlogs.iter().enumerate() {
            let Some(b) = *b else { continue };
            if hot.is_none_or(|(_, hb)| b > hb) {
                hot = Some((x, b));
            }
            if cold.is_none_or(|(_, cb)| b < cb) {
                cold = Some((x, b));
            }
        }
        let ((h, hb), (c, cb)) = (hot?, cold?);
        if h != c && hb - cb >= self.policy.min_imbalance {
            Some((h, c))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_pattern_reproduces_the_legacy_arithmetic() {
        let p = ArrivalPattern::Uniform;
        let rate = 4.0e6;
        let horizon = 0.002;
        assert_eq!(p.due(rate, horizon), (rate * horizon) as u64);
        for k in 1..100u64 {
            assert_eq!(p.arrival_time(k, rate), k as f64 / rate);
        }
        for seen in 0..100u64 {
            assert_eq!(p.wake_after(seen, rate), (seen as f64 + 0.5) / rate);
        }
    }

    #[test]
    fn bursty_pattern_keeps_the_long_run_rate_and_compresses_arrivals() {
        let p = ArrivalPattern::Bursty {
            period: 100e-6,
            duty: 0.25,
        };
        p.validate();
        let rate = 1.0e6;
        // Whole cycles deliver the same count as uniform.
        assert_eq!(p.due(rate, 400e-6), (rate * 400e-6) as u64);
        // Every arrival falls inside a burst window.
        for k in 1..400u64 {
            let t = p.arrival_time(k, rate);
            let frac = t - (t / 100e-6).floor() * 100e-6;
            assert!(
                frac <= 0.25 * 100e-6 + 1e-12,
                "arrival {k} at {t} lies outside the burst window"
            );
        }
        // Arrival times are strictly increasing.
        let times: Vec<f64> = (1..400u64).map(|k| p.arrival_time(k, rate)).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        // due() and arrival_time() agree: the k-th arrival is due at
        // its own arrival time.
        for k in [1u64, 7, 63, 250] {
            assert!(p.due(rate, p.arrival_time(k, rate) + 1e-12) >= k);
        }
    }

    #[test]
    fn token_bucket_enforces_rate_and_burst() {
        let mut b = TokenBucket::new(1000.0, 4.0);
        // The full burst is available immediately.
        for _ in 0..4 {
            assert!(b.take(0.0));
        }
        assert!(!b.take(0.0), "burst exhausted");
        // One refill interval buys one token.
        assert!(b.take(1e-3));
        assert!(!b.take(1e-3));
        // A long idle gap refills to the cap, not beyond.
        for _ in 0..4 {
            assert!(b.take(10.0));
        }
        assert!(!b.take(10.0));
    }

    #[test]
    fn qos_classes_shed_their_own_traffic_only() {
        let fill = FillLimits::default();
        let cap = 100;
        let mut g = StreamQos {
            class: QosClass::Guaranteed,
            bucket: Some(TokenBucket::new(1000.0, 2.0)),
        };
        assert_eq!(g.admit(0.0, 0, cap, fill), AdmitVerdict::Admit);
        assert_eq!(g.admit(0.0, 0, cap, fill), AdmitVerdict::Admit);
        assert_eq!(
            g.admit(0.0, 0, cap, fill),
            AdmitVerdict::Shed,
            "over-quota guaranteed traffic is shed, not queued"
        );
        assert_eq!(
            g.admit(1.0, cap, cap, fill),
            AdmitVerdict::Spill,
            "conformant traffic against a full queue is a spill"
        );

        let mut be = StreamQos {
            class: QosClass::BestEffort,
            bucket: None,
        };
        assert_eq!(be.admit(0.0, 0, cap, fill), AdmitVerdict::Admit);
        assert_eq!(
            be.admit(0.0, 60, cap, fill),
            AdmitVerdict::Shed,
            "best effort stops at its fill limit"
        );

        let mut bu = StreamQos {
            class: QosClass::Burstable,
            bucket: Some(TokenBucket::new(0.0, 0.0)),
        };
        assert_eq!(
            bu.admit(0.0, 50, cap, fill),
            AdmitVerdict::Admit,
            "over-quota burstable borrows idle capacity"
        );
        assert_eq!(
            bu.admit(0.0, 90, cap, fill),
            AdmitVerdict::Shed,
            "but only up to the burstable fill limit"
        );

        // An untenanted stream's gate admits on raw capacity alone.
        let mut raw = StreamQos {
            class: QosClass::Guaranteed,
            bucket: None,
        };
        for backlog in 0..=cap + 1 {
            let want = if backlog < cap {
                AdmitVerdict::Admit
            } else {
                AdmitVerdict::Spill
            };
            assert_eq!(
                raw.admit(0.0, backlog, cap, fill),
                want,
                "backlog {backlog}"
            );
        }
    }

    #[test]
    fn assignments_spread_tenant_slots_round_robin() {
        let mut a = TenantSpec::new("a", QosClass::Guaranteed, 0.5);
        a.streams = 3;
        a.shard_set = vec![1, 2];
        let mut b = TenantSpec::new("b", QosClass::BestEffort, 0.5);
        b.streams = 2;
        let cfg = TenancyConfig::new(vec![a, b]);
        cfg.validate(4);
        assert_eq!(cfg.assignments(4), vec![1, 2, 1, 0, 1]);
        assert_eq!(cfg.slot_tenants(), vec![0, 0, 0, 1, 1]);
        assert_eq!(cfg.total_streams(), 5);
    }

    #[test]
    fn planner_picks_the_widest_gap_and_respects_eligibility() {
        let planner = ReshardPlanner::new(ReshardPolicy {
            tick: 1e-3,
            min_imbalance: 10,
            max_migrations: 2,
        });
        assert!(planner.may_plan());
        assert_eq!(
            planner.pick(&[Some(50), Some(5), Some(30), Some(7)]),
            Some((0, 1))
        );
        // The hot shard being ineligible (down/redirected) blocks it.
        assert_eq!(
            planner.pick(&[None, Some(5), Some(30), Some(7)]),
            Some((2, 1))
        );
        // Below the imbalance threshold: no migration.
        assert_eq!(planner.pick(&[Some(12), Some(5)]), None);
        // One eligible shard can't rebalance with itself.
        assert_eq!(planner.pick(&[None, Some(5), None, None]), None);
    }
}
