//! Synthetic matching workloads, mirroring the paper's micro-benchmarks.
//!
//! Section V-B: "The message queues in this benchmark contain random
//! tuples in random order, but all tuples of the message queue match with
//! tuples in the receive queue, thus no elements are left in the queues
//! after the matching." The generators here produce that workload plus
//! the variants the relaxation experiments need (partial match fractions,
//! bounded peer counts, duplicate-tuple densities, wildcard injection).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::envelope::{Envelope, RecvRequest, SrcSpec, TagSpec};

/// A generated batch workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Message queue contents, in arrival order.
    pub msgs: Vec<Envelope>,
    /// Receive queue contents, in posted order.
    pub reqs: Vec<RecvRequest>,
}

/// Parameters of the workload generator.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Queue length (messages; the request count scales by
    /// `match_fraction`).
    pub len: usize,
    /// Distinct source ranks (the paper's apps talk to 10–30 peers).
    pub peers: u32,
    /// Distinct tags (Table I: from <4 to thousands).
    pub tags: u32,
    /// Fraction of messages with a matching request, in percent.
    /// 100 = the paper's fully-matching micro-benchmark.
    pub match_pct: u32,
    /// Per-mille of requests carrying a source wildcard.
    pub src_wildcard_pm: u32,
    /// Per-mille of requests carrying a tag wildcard.
    pub tag_wildcard_pm: u32,
    /// Communicator id for the whole batch (apps mostly use one).
    pub comm: u16,
    /// RNG seed (workloads are deterministic given the spec).
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            len: 1024,
            peers: 32,
            tags: 1 << 14,
            match_pct: 100,
            src_wildcard_pm: 0,
            tag_wildcard_pm: 0,
            comm: 0,
            seed: 0x5EED,
        }
    }
}

impl WorkloadSpec {
    /// The paper's Figure 4/5 micro-benchmark: random tuples, all
    /// matching.
    pub fn fully_matching(len: usize, seed: u64) -> Self {
        WorkloadSpec {
            len,
            seed,
            ..Default::default()
        }
    }

    /// Random *unique* tuples (Figure 6(b): "we chose random values for
    /// the {src, tag} tuple"): tag space wide enough that tuples rarely
    /// repeat, ideal for the hash matcher.
    pub fn unique_tuples(len: usize, seed: u64) -> Self {
        WorkloadSpec {
            len,
            peers: u32::MAX, // unbounded source space
            tags: 1 << 16,
            seed,
            ..Default::default()
        }
    }

    /// Generate the workload.
    pub fn generate(&self) -> Workload {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let peers = self.peers.max(1);
        let tags = self.tags.clamp(1, crate::envelope::MAX_TAG);

        let mut msgs = Vec::with_capacity(self.len);
        if peers == u32::MAX {
            // Unique-tuple mode: enumerate distinct tuples, then shuffle.
            for k in 0..self.len as u64 {
                let src = (k / tags as u64) as u32;
                let tag = (k % tags as u64) as u32;
                msgs.push(Envelope::new(src, tag, self.comm));
            }
            msgs.shuffle(&mut rng);
        } else {
            for _ in 0..self.len {
                msgs.push(Envelope::new(
                    rng.gen_range(0..peers),
                    rng.gen_range(0..tags),
                    self.comm,
                ));
            }
        }

        // Requests: one per message for the matching fraction, permuted;
        // non-matching requests target tuples outside the message set.
        let n_match = self.len * self.match_pct as usize / 100;
        let mut matched_ids: Vec<usize> = (0..msgs.len()).collect();
        matched_ids.shuffle(&mut rng);
        matched_ids.truncate(n_match);

        let mut reqs: Vec<RecvRequest> = matched_ids
            .iter()
            .map(|&i| RecvRequest::exact(msgs[i].src, msgs[i].tag, self.comm))
            .collect();
        // Fill the remainder with never-matching requests (distinct comm
        // tuple space via an out-of-range tag pattern on a reserved peer).
        while reqs.len() < self.len {
            reqs.push(RecvRequest::exact(
                peers.saturating_add(rng.gen_range(1..1000)),
                rng.gen_range(0..tags),
                self.comm,
            ));
        }
        reqs.shuffle(&mut rng);

        // Wildcard injection.
        for r in reqs.iter_mut() {
            if rng.gen_range(0..1000) < self.src_wildcard_pm {
                r.src = SrcSpec::Any;
            }
            if rng.gen_range(0..1000) < self.tag_wildcard_pm {
                r.tag = TagSpec::Any;
            }
        }

        Workload { msgs, reqs }
    }
}

/// Tuple uniqueness of a message stream, as plotted in Figure 6(a): the
/// share (percent) of messages carrying the *most common* tuple. High
/// values mean many hash collisions.
pub(crate) fn tuple_uniqueness_pct(msgs: &[Envelope]) -> f64 {
    if msgs.is_empty() {
        return 0.0;
    }
    let mut counts = std::collections::HashMap::new();
    for m in msgs {
        *counts.entry((m.src, m.tag, m.comm)).or_insert(0usize) += 1;
    }
    let max = counts.values().copied().max().unwrap_or(0);
    100.0 * max as f64 / msgs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::match_queues;

    #[test]
    fn fully_matching_workload_matches_fully() {
        let w = WorkloadSpec::fully_matching(256, 1).generate();
        assert_eq!(w.msgs.len(), 256);
        assert_eq!(w.reqs.len(), 256);
        let a = match_queues(&w.msgs, &w.reqs);
        assert!(a.iter().all(|x| x.is_some()), "all requests must match");
    }

    #[test]
    fn unique_tuples_have_no_duplicates() {
        let w = WorkloadSpec::unique_tuples(1024, 2).generate();
        let mut set = std::collections::HashSet::new();
        for m in &w.msgs {
            assert!(set.insert((m.src, m.tag)), "duplicate tuple {m:?}");
        }
        assert!(tuple_uniqueness_pct(&w.msgs) < 0.2);
    }

    #[test]
    fn match_fraction_respected() {
        let w = WorkloadSpec {
            len: 1000,
            match_pct: 50,
            seed: 3,
            ..Default::default()
        }
        .generate();
        let a = match_queues(&w.msgs, &w.reqs);
        let matched = a.iter().filter(|x| x.is_some()).count();
        // At least the designated half matches; random extras are possible
        // (a "non-matching" tuple may coincide with a real one only on the
        // reserved peer range, which it cannot).
        assert!(matched >= 500, "only {matched} matched");
        assert!(matched <= 560, "too many matched: {matched}");
    }

    #[test]
    fn wildcard_injection() {
        let w = WorkloadSpec {
            len: 1000,
            src_wildcard_pm: 500,
            tag_wildcard_pm: 100,
            seed: 4,
            ..Default::default()
        }
        .generate();
        let src_wild = w.reqs.iter().filter(|r| r.src == SrcSpec::Any).count();
        let tag_wild = w.reqs.iter().filter(|r| r.tag == TagSpec::Any).count();
        assert!((400..600).contains(&src_wild), "{src_wild}");
        assert!((50..170).contains(&tag_wild), "{tag_wild}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = WorkloadSpec::fully_matching(128, 9).generate();
        let b = WorkloadSpec::fully_matching(128, 9).generate();
        assert_eq!(a.msgs, b.msgs);
        assert_eq!(a.reqs, b.reqs);
        let c = WorkloadSpec::fully_matching(128, 10).generate();
        assert_ne!(a.msgs, c.msgs);
    }

    #[test]
    fn uniqueness_metric() {
        let uniform: Vec<Envelope> = (0..100).map(|i| Envelope::new(i, 0, 0)).collect();
        assert!((tuple_uniqueness_pct(&uniform) - 1.0).abs() < 1e-9);
        let constant: Vec<Envelope> = (0..100).map(|_| Envelope::new(1, 1, 0)).collect();
        assert!((tuple_uniqueness_pct(&constant) - 100.0).abs() < 1e-9);
        assert_eq!(tuple_uniqueness_pct(&[]), 0.0);
    }
}
