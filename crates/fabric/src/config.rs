//! Fabric configuration: link parameters, protocol thresholds, flow
//! control, reliability and the fault model.

/// Fault-injection probabilities, applied independently to every packet
/// traversal (retransmissions included — the wire does not know a
/// retransmit from a first attempt).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a traversal is silently dropped.
    pub drop_prob: f64,
    /// Probability a traversal is duplicated (a second copy arrives
    /// after an extra skew delay).
    pub duplicate_prob: f64,
    /// Probability a traversal picks up extra delivery skew, letting a
    /// later packet overtake it.
    pub reorder_prob: f64,
    /// Upper bound on the extra skew, in nanoseconds. Reordering is
    /// therefore *bounded*: a packet arrives at most this much later
    /// than its fault-free delivery time.
    pub reorder_skew_ns: u64,
    /// Probability a data traversal arrives with a flipped payload bit.
    /// The receiver's CRC32 check rejects the packet without
    /// acknowledging it (nack-as-loss), so the retransmission repairs
    /// it — corruption behaves like a detected drop, never like silent
    /// damage.
    pub corrupt_prob: f64,
}

impl FaultConfig {
    /// A perfectly clean wire.
    pub const NONE: FaultConfig = FaultConfig {
        drop_prob: 0.0,
        duplicate_prob: 0.0,
        reorder_prob: 0.0,
        reorder_skew_ns: 0,
        corrupt_prob: 0.0,
    };
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::NONE
    }
}

/// Link *lifecycle* faults: whole links (or whole topology cuts) going
/// down for a window and coming back, on top of the per-packet
/// [`FaultConfig`].
///
/// The schedule is a pure function of `(seed, link, time)`: simulated
/// time is divided into fixed cycles, and a per-cycle hash decides
/// whether that cycle contains a down window and where it starts. Any
/// query at any time therefore answers identically across runs and
/// schedulers — no RNG stream is consumed, so enabling link faults
/// never perturbs the per-packet fault draws.
///
/// While a link is down, traversals that would depart or land inside
/// the window are lost; retransmit exhaustion on a down link *parks*
/// the packet (a down episode is counted in
/// [`crate::FabricStats::link_down_events`] instead of a dead-packet
/// error) and the heal resumes selective-repeat from the surviving
/// unacked window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultConfig {
    /// Cycle length of the per-link flap schedule grid, in nanoseconds.
    pub flap_period_ns: u64,
    /// Probability a given link is down for one window within a given
    /// cycle.
    pub flap_prob: f64,
    /// Length of one flap down-window, in nanoseconds (must be shorter
    /// than the period).
    pub flap_down_ns: u64,
    /// Cycle length of the topology-partition schedule grid, in
    /// nanoseconds.
    pub partition_period_ns: u64,
    /// Probability a given cycle contains a full topology partition: the
    /// ranks are hashed into two sides and every cross-side link is down
    /// for the window.
    pub partition_prob: f64,
    /// Length of one partition window, in nanoseconds (must be shorter
    /// than the period).
    pub partition_down_ns: u64,
}

impl LinkFaultConfig {
    /// Links that never go down.
    pub const NONE: LinkFaultConfig = LinkFaultConfig {
        flap_period_ns: 50_000,
        flap_prob: 0.0,
        flap_down_ns: 10_000,
        partition_period_ns: 200_000,
        partition_prob: 0.0,
        partition_down_ns: 40_000,
    };

    /// True when no link can ever go down.
    pub(crate) fn is_quiet(&self) -> bool {
        self.flap_prob == 0.0 && self.partition_prob == 0.0
    }
}

impl Default for LinkFaultConfig {
    fn default() -> Self {
        LinkFaultConfig::NONE
    }
}

/// What order completed messages are released to the destination in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOrder {
    /// Release messages of each `(src, dst)` channel strictly in send
    /// order, holding back any that complete early — the transport
    /// itself restores per-pair FIFO, which is what a full-MPI matching
    /// domain requires of its wire.
    PerPairFifo,
    /// Release every message the moment its last fragment arrives.
    /// Out-of-order wire behaviour becomes visible to the layer above —
    /// the regime the paper's no-ordering relaxation targets, where
    /// tags (or a user-level reorder buffer) disambiguate.
    Unordered,
}

/// Complete fabric configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// Maximum payload bytes per data packet; larger messages fragment.
    pub mtu: usize,
    /// Payloads at or below this many bytes ship eagerly; larger ones
    /// negotiate RTS/CTS first.
    pub eager_threshold: usize,
    /// Propagation latency per link traversal, in nanoseconds.
    pub link_latency_ns: u64,
    /// Serialization rate in bytes per nanosecond (1.0 = 1 GB/s).
    pub bandwidth_bytes_per_ns: f64,
    /// Data-packet credits per `(src, dst)` channel — slots in the
    /// destination's landing queue. A credit is consumed at first
    /// transmission and returned when the packet is first acknowledged.
    pub credits: u32,
    /// Initial retransmission timeout, in nanoseconds.
    pub retransmit_timeout_ns: u64,
    /// Timeout multiplier applied per retry (exponential backoff).
    pub backoff: u32,
    /// Retransmissions allowed per packet before the fabric declares it
    /// dead (surfaces as an error from [`crate::Fabric::run_until_quiescent`]).
    pub max_retransmits: u32,
    /// Release order for completed messages.
    pub order: DeliveryOrder,
    /// Receiver-side duplicate suppression. `true` models a reliable
    /// exactly-once transport. `false` models an at-least-once wire:
    /// duplicate single-fragment packets are re-delivered upward, so the
    /// layer above (e.g. `gpu_msg::ReorderBuffer`) must drop them.
    pub dedup: bool,
    /// Seed for the fault-injection RNG.
    pub seed: u64,
    /// Fault model applied per traversal.
    pub fault: FaultConfig,
    /// Link-lifecycle fault model (flap windows and topology
    /// partitions).
    pub link_fault: LinkFaultConfig,
    /// Record per-link span timelines (packet flights, retransmits,
    /// credit stalls, faults) for Perfetto export.
    pub trace: bool,
    /// Per-link recorder capacity when tracing.
    pub trace_capacity: usize,
    /// Offset added to every link-track id (on top of the shared
    /// `obs::tracks::fabric_link` window), letting several fabrics
    /// coexist in one merged trace without colliding.
    pub trace_track_base: u32,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            mtu: 256,
            eager_threshold: 1024,
            link_latency_ns: 500,
            bandwidth_bytes_per_ns: 16.0,
            credits: 8,
            retransmit_timeout_ns: 20_000,
            backoff: 2,
            max_retransmits: 16,
            order: DeliveryOrder::PerPairFifo,
            dedup: true,
            seed: 0,
            fault: FaultConfig::NONE,
            link_fault: LinkFaultConfig::NONE,
            trace: false,
            trace_capacity: 4096,
            trace_track_base: 0,
        }
    }
}

impl FabricConfig {
    /// Sanity-check the configuration.
    ///
    /// # Errors
    /// Zero MTU, zero credits, non-positive bandwidth, a zero timeout or
    /// an out-of-range probability.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.mtu == 0 {
            return Err("mtu must be at least 1 byte".into());
        }
        if self.credits == 0 {
            return Err("credit-based flow control needs at least 1 credit".into());
        }
        if self.bandwidth_bytes_per_ns.is_nan() || self.bandwidth_bytes_per_ns <= 0.0 {
            return Err("bandwidth must be positive".into());
        }
        if self.retransmit_timeout_ns == 0 {
            return Err("retransmit timeout must be non-zero".into());
        }
        if self.backoff == 0 {
            return Err("backoff multiplier must be at least 1".into());
        }
        for (name, p) in [
            ("drop_prob", self.fault.drop_prob),
            ("duplicate_prob", self.fault.duplicate_prob),
            ("reorder_prob", self.fault.reorder_prob),
            ("corrupt_prob", self.fault.corrupt_prob),
            ("flap_prob", self.link_fault.flap_prob),
            ("partition_prob", self.link_fault.partition_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must lie in [0, 1], got {p}"));
            }
        }
        if self.fault.drop_prob >= 1.0 {
            return Err("drop_prob 1.0 can never deliver anything".into());
        }
        let lf = &self.link_fault;
        if lf.flap_prob > 0.0 && (lf.flap_period_ns == 0 || lf.flap_down_ns >= lf.flap_period_ns) {
            return Err(format!(
                "flap windows need 0 < flap_down_ns < flap_period_ns, got {} / {}",
                lf.flap_down_ns, lf.flap_period_ns
            ));
        }
        if lf.flap_prob > 0.0 && lf.flap_down_ns == 0 {
            return Err("flap_down_ns must be non-zero when flaps are enabled".into());
        }
        if lf.partition_prob > 0.0
            && (lf.partition_period_ns == 0 || lf.partition_down_ns >= lf.partition_period_ns)
        {
            return Err(format!(
                "partition windows need 0 < partition_down_ns < partition_period_ns, got {} / {}",
                lf.partition_down_ns, lf.partition_period_ns
            ));
        }
        if lf.partition_prob > 0.0 && lf.partition_down_ns == 0 {
            return Err("partition_down_ns must be non-zero when partitions are enabled".into());
        }
        Ok(())
    }

    /// Every knob of the configuration as `(name, value)` pairs, in a
    /// stable order — recorded into traces (as the `fabric_config`
    /// instant's args) so an exported timeline carries the exact wire it
    /// was produced under, link-lifecycle and corruption knobs included.
    pub(crate) fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("mtu", self.mtu.to_string()),
            ("eager_threshold", self.eager_threshold.to_string()),
            ("link_latency_ns", self.link_latency_ns.to_string()),
            (
                "bandwidth_bytes_per_ns",
                format!("{}", self.bandwidth_bytes_per_ns),
            ),
            ("credits", self.credits.to_string()),
            (
                "retransmit_timeout_ns",
                self.retransmit_timeout_ns.to_string(),
            ),
            ("backoff", self.backoff.to_string()),
            ("max_retransmits", self.max_retransmits.to_string()),
            (
                "order",
                match self.order {
                    DeliveryOrder::PerPairFifo => "per_pair_fifo".to_string(),
                    DeliveryOrder::Unordered => "unordered".to_string(),
                },
            ),
            ("dedup", self.dedup.to_string()),
            ("seed", self.seed.to_string()),
            ("drop_prob", format!("{}", self.fault.drop_prob)),
            ("duplicate_prob", format!("{}", self.fault.duplicate_prob)),
            ("reorder_prob", format!("{}", self.fault.reorder_prob)),
            ("reorder_skew_ns", self.fault.reorder_skew_ns.to_string()),
            ("corrupt_prob", format!("{}", self.fault.corrupt_prob)),
            ("flap_period_ns", self.link_fault.flap_period_ns.to_string()),
            ("flap_prob", format!("{}", self.link_fault.flap_prob)),
            ("flap_down_ns", self.link_fault.flap_down_ns.to_string()),
            (
                "partition_period_ns",
                self.link_fault.partition_period_ns.to_string(),
            ),
            (
                "partition_prob",
                format!("{}", self.link_fault.partition_prob),
            ),
            (
                "partition_down_ns",
                self.link_fault.partition_down_ns.to_string(),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        FabricConfig::default().validate().unwrap();
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        for broken in [
            FabricConfig {
                mtu: 0,
                ..Default::default()
            },
            FabricConfig {
                credits: 0,
                ..Default::default()
            },
            FabricConfig {
                bandwidth_bytes_per_ns: 0.0,
                ..Default::default()
            },
            FabricConfig {
                retransmit_timeout_ns: 0,
                ..Default::default()
            },
            FabricConfig {
                fault: FaultConfig {
                    drop_prob: 1.0,
                    ..FaultConfig::NONE
                },
                ..Default::default()
            },
            FabricConfig {
                fault: FaultConfig {
                    reorder_prob: 1.5,
                    ..FaultConfig::NONE
                },
                ..Default::default()
            },
        ] {
            assert!(broken.validate().is_err(), "{broken:?} must be rejected");
        }
    }

    #[test]
    fn lossless_predicate() {
        assert_eq!(FaultConfig::default(), FaultConfig::NONE);
        assert!(LinkFaultConfig::NONE.is_quiet());
        assert_eq!(LinkFaultConfig::default(), LinkFaultConfig::NONE);
    }

    #[test]
    fn link_fault_windows_must_fit_their_period() {
        for broken in [
            LinkFaultConfig {
                flap_prob: 0.5,
                flap_down_ns: 50_000,
                ..Default::default()
            },
            LinkFaultConfig {
                flap_prob: 0.5,
                flap_period_ns: 0,
                ..Default::default()
            },
            LinkFaultConfig {
                partition_prob: 0.5,
                partition_down_ns: 200_000,
                ..Default::default()
            },
        ] {
            let cfg = FabricConfig {
                link_fault: broken,
                ..Default::default()
            };
            assert!(cfg.validate().is_err(), "{broken:?} must be rejected");
        }
        FabricConfig {
            link_fault: LinkFaultConfig {
                flap_prob: 0.5,
                partition_prob: 0.2,
                ..Default::default()
            },
            ..Default::default()
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn params_cover_the_fault_knobs() {
        let cfg = FabricConfig::default();
        let params = cfg.params();
        for name in [
            "mtu",
            "corrupt_prob",
            "flap_prob",
            "flap_period_ns",
            "partition_prob",
            "partition_down_ns",
        ] {
            assert!(
                params.iter().any(|(k, _)| *k == name),
                "params() must record {name}"
            );
        }
    }
}
