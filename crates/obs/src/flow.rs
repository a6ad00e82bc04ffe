//! Causal flow identities: stitch one message's life into a connected
//! arrow chain across tracks.
//!
//! A [`FlowId`] names one message end-to-end. Producers record flow
//! points ([`FlowPhase::Start`] → [`FlowPhase::Step`]* →
//! [`FlowPhase::End`]) into their ordinary [`crate::SpanRecorder`]s;
//! the Perfetto exporter renders them as `ph:"s"/"t"/"f"` flow events,
//! which the viewer draws as arrows between the tracks the points
//! landed on (admission on a shard track, packetization on a link
//! track, delivery on the destination's track, …).
//!
//! Ids are pure functions of message identity — `(stream, seq)` for the
//! sharded service, `(src, dst, msg_seq)` for a fabric channel — so the
//! same message maps to the same id in every scheduler interleaving and
//! every re-run: flow tracing adds nothing nondeterministic to a trace.
//!
//! Tracing every message at 10 M msg/s would overflow any bounded
//! recorder, so a [`FlowSampler`] admits a deterministic 1-in-K subset:
//! membership is a hash of `(seed, id)`, never of arrival order, which
//! keeps the sampled set identical across schedulers and runs.

/// Identity of one message's end-to-end flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

impl FlowId {
    /// Flow id of the service message `(stream, seq)`. Streams are
    /// global stream indices; seqs are per-stream admission counters.
    /// The two fields occupy disjoint bit ranges so distinct messages
    /// can never alias (seqs stay far below 2^40 at any modelled rate).
    #[must_use]
    pub fn service(stream: u32, seq: u64) -> Self {
        FlowId(((stream as u64 + 1) << 40) | (seq & 0xFF_FFFF_FFFF))
    }

    /// Flow id of the `msg_seq`-th message on the fabric channel
    /// `src → dst`. The high bit separates the fabric namespace from
    /// the service namespace.
    #[must_use]
    pub fn fabric(src: u32, dst: u32, msg_seq: u64) -> Self {
        FlowId((1 << 63) | ((src as u64) << 51) | ((dst as u64) << 39) | (msg_seq & 0x7F_FFFF_FFFF))
    }
}

/// Where a flow point sits in its chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPhase {
    /// First point (Perfetto `ph:"s"`).
    Start,
    /// Intermediate point (`ph:"t"`).
    Step,
    /// Final point (`ph:"f"`).
    End,
}

/// A flow point carried on a [`crate::SpanEvent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FlowPoint {
    /// The chain this point belongs to.
    pub(crate) id: FlowId,
    /// Position in the chain.
    pub(crate) phase: FlowPhase,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic 1-in-K flow admission.
///
/// Membership is `hash(seed ^ id) < u64::MAX / K` — a comparison
/// against a threshold precomputed at construction, not a modulo, so
/// the per-message check on the admission hot path costs a few cycles
/// and no division.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSampler {
    /// Sample one in this many flows (0 and 1 both mean "all").
    pub(crate) every: u32,
    /// Seed mixed into the membership hash.
    pub(crate) seed: u64,
    /// Admission threshold: hashes strictly below this are sampled.
    threshold: u64,
}

impl FlowSampler {
    /// Sampler admitting roughly one in `every` flows.
    #[must_use]
    pub fn new(every: u32, seed: u64) -> Self {
        let threshold = if every <= 1 {
            u64::MAX
        } else {
            u64::MAX / every as u64
        };
        FlowSampler {
            every,
            seed,
            threshold,
        }
    }

    /// Is this flow in the sampled subset? A pure function of
    /// `(seed, id)` — identical across runs and schedulers.
    #[must_use]
    pub fn admits(&self, id: FlowId) -> bool {
        self.every <= 1 || splitmix64(self.seed ^ id.0) < self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_injective_across_namespaces() {
        let mut seen = std::collections::HashSet::new();
        for stream in 0..8u32 {
            for seq in 0..64u64 {
                assert!(seen.insert(FlowId::service(stream, seq)));
            }
        }
        for src in 0..4u32 {
            for dst in 0..4u32 {
                for seq in 0..16u64 {
                    assert!(seen.insert(FlowId::fabric(src, dst, seq)));
                }
            }
        }
    }

    #[test]
    fn sampler_is_deterministic_and_roughly_one_in_k() {
        let s = FlowSampler::new(64, 5);
        let admitted: Vec<bool> = (0..8192u64)
            .map(|i| s.admits(FlowId::service(0, i)))
            .collect();
        let again: Vec<bool> = (0..8192u64)
            .map(|i| s.admits(FlowId::service(0, i)))
            .collect();
        assert_eq!(admitted, again, "membership is a pure function");
        let hits = admitted.iter().filter(|&&a| a).count();
        assert!(
            (32..=512).contains(&hits),
            "1-in-64 sampling of 8192 flows admitted {hits}"
        );
    }

    #[test]
    fn every_one_admits_everything() {
        for every in [0, 1] {
            let s = FlowSampler::new(every, 99);
            assert!((0..100u64).all(|i| s.admits(FlowId::service(1, i))));
        }
    }
}
