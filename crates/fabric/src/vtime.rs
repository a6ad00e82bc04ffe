//! Per-domain virtual time and conservative (PDES-style) watermark
//! synchronization.
//!
//! When the sharded service runs shard groups on separate OS threads,
//! each group advances its own simulated clock — a *virtual-time
//! domain*. Cross-domain effects (fabric delivery, supervisor health
//! checks, failover journal transfer) are only safe up to the *lower
//! bound* of every domain's clock: an event stamped later than that
//! bound might still be preceded by an undelivered event from a slower
//! domain. [`WatermarkExchange`] tracks those per-domain clocks and
//! answers the conservative question "up to what time may every domain
//! advance without risking a causality violation?" — the classic
//! null-message/lookahead rule from conservative parallel
//! discrete-event simulation.

/// Conservative lower-bound watermark exchange across `n` virtual-time
/// domains.
///
/// Each domain reports its clock via [`advance`](Self::advance); the
/// coordinator reads `lower_bound` (the slowest
/// domain) and [`safe_until`](Self::safe_until) (lower bound plus
/// lookahead — the horizon every domain may run to independently,
/// because no cross-domain event can take effect sooner than one
/// lookahead past the slowest clock).
#[derive(Debug, Clone)]
pub struct WatermarkExchange {
    watermarks: Vec<f64>,
}

impl WatermarkExchange {
    /// Exchange over `n` domains, all starting at time zero.
    pub fn new(n: usize) -> Self {
        WatermarkExchange {
            watermarks: vec![0.0; n.max(1)],
        }
    }

    /// Domain `domain` reports its clock has reached `t`. Watermarks
    /// are monotone: a stale (earlier) report is ignored.
    pub fn advance(&mut self, domain: usize, t: f64) {
        let w = &mut self.watermarks[domain];
        if t > *w {
            *w = t;
        }
    }

    /// The slowest domain's clock — no cross-domain event earlier than
    /// this can still be generated.
    pub(crate) fn lower_bound(&self) -> f64 {
        self.watermarks
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Horizon every domain may advance to without synchronizing:
    /// `lower_bound() + lookahead`. With lookahead equal to the minimum
    /// cross-domain delay (e.g. the supervisor's health-check interval),
    /// events beyond this horizon cannot be affected by any unprocessed
    /// event in another domain.
    pub fn safe_until(&self, lookahead: f64) -> f64 {
        self.lower_bound() + lookahead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_bound_tracks_the_slowest_domain() {
        let mut x = WatermarkExchange::new(3);
        assert_eq!(x.lower_bound(), 0.0);
        x.advance(0, 10.0);
        x.advance(1, 4.0);
        x.advance(2, 8.0);
        assert_eq!(x.lower_bound(), 4.0);
        x.advance(1, 12.0);
        assert_eq!(x.lower_bound(), 8.0);
    }

    #[test]
    fn stale_reports_are_ignored() {
        let mut x = WatermarkExchange::new(2);
        x.advance(0, 9.0);
        x.advance(0, 2.0);
        x.advance(1, 9.0);
        assert_eq!(x.lower_bound(), 9.0);
    }

    #[test]
    fn safe_horizon_adds_lookahead() {
        let mut x = WatermarkExchange::new(2);
        x.advance(0, 1.0);
        x.advance(1, 3.0);
        assert_eq!(x.safe_until(0.5), 1.5);
    }
}
