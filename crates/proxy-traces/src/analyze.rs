//! Trace analysis: everything Section IV derives from the dumpi traces.
//!
//! The analyzer replays a trace through per-rank UMQ/PRQ reconstructions
//! ("General statistics are collected by parsing the trace files, while
//! others require message queues to be restored any time a matching is
//! attempted") and aggregates:
//!
//! * wildcard usage (Table I),
//! * communicator counts (Table I),
//! * peers per rank (Table I),
//! * distinct tag counts and tag-width requirements (Section IV-A),
//! * UMQ/PRQ maximum-depth distributions across ranks (Figure 2),
//! * {src, tag} tuple uniqueness per destination (Figure 6(a)),
//! * search lengths per matching attempt.

use std::collections::{BTreeSet, HashMap};

use msg_match::{Envelope, RecvRequest};

use crate::events::{Trace, TraceEvent};

/// Distribution summary of a per-rank metric (the boxplot data of
/// Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    /// Smallest per-rank value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Mean.
    pub mean: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest per-rank value.
    pub max: f64,
}

impl Distribution {
    /// Summarise a sample set. Returns all-zero for an empty sample.
    pub(crate) fn of(values: &[f64]) -> Distribution {
        if values.is_empty() {
            return Distribution {
                min: 0.0,
                q1: 0.0,
                median: 0.0,
                mean: 0.0,
                q3: 0.0,
                max: 0.0,
            };
        }
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in metrics"));
        let pct = |p: f64| -> f64 {
            let idx = p * (v.len() - 1) as f64;
            let lo = idx.floor() as usize;
            let hi = idx.ceil() as usize;
            if lo == hi {
                v[lo]
            } else {
                v[lo] + (v[hi] - v[lo]) * (idx - lo as f64)
            }
        };
        Distribution {
            min: v[0],
            q1: pct(0.25),
            median: pct(0.5),
            mean: v.iter().sum::<f64>() / v.len() as f64,
            q3: pct(0.75),
            max: v[v.len() - 1],
        }
    }
}

/// Amortised-O(1) queue reconstruction: a grow-only vector with
/// tombstones and an advancing head. `Vec::remove`-style shifting would
/// make deep-queue traces (Nekbone's 4000-entry UMQs) quadratic.
struct TombstoneQueue<T> {
    slots: Vec<Option<T>>,
    head: usize,
    live: usize,
    max_live: usize,
}

impl<T> TombstoneQueue<T> {
    fn new() -> Self {
        TombstoneQueue {
            slots: Vec::new(),
            head: 0,
            live: 0,
            max_live: 0,
        }
    }

    fn push(&mut self, value: T) {
        self.slots.push(Some(value));
        self.live += 1;
        self.max_live = self.max_live.max(self.live);
    }

    /// Remove and return the first live element satisfying `pred`,
    /// with the number of live entries inspected.
    fn remove_first(&mut self, mut pred: impl FnMut(&T) -> bool) -> (Option<T>, usize) {
        // Advance the head past tombstones first.
        while self.head < self.slots.len() && self.slots[self.head].is_none() {
            self.head += 1;
        }
        let mut inspected = 0usize;
        for i in self.head..self.slots.len() {
            if let Some(v) = &self.slots[i] {
                inspected += 1;
                if pred(v) {
                    let out = self.slots[i].take();
                    self.live -= 1;
                    return (out, inspected);
                }
            }
        }
        (None, inspected)
    }

    #[cfg(test)]
    fn live(&self) -> usize {
        self.live
    }
}

/// Per-rank queue reconstruction state.
struct RankState {
    umq: TombstoneQueue<Envelope>,
    prq: TombstoneQueue<RecvRequest>,
    umq_search_total: u64,
    umq_search_attempts: u64,
    matches: u64,
}

impl RankState {
    fn new() -> Self {
        RankState {
            umq: TombstoneQueue::new(),
            prq: TombstoneQueue::new(),
            umq_search_total: 0,
            umq_search_attempts: 0,
            matches: 0,
        }
    }
}

/// Full analysis of one application trace.
#[derive(Debug, Clone)]
pub struct AppAnalysis {
    /// Application name.
    pub app: String,
    /// Rank count.
    pub ranks: u32,
    /// Total messages sent.
    pub messages: u64,
    /// Receives posted with `MPI_ANY_SOURCE`.
    pub src_wildcards: u64,
    /// Receives posted with `MPI_ANY_TAG`.
    pub tag_wildcards: u64,
    /// Distinct communicators used by point-to-point traffic.
    pub communicators: usize,
    /// Distribution (across ranks) of distinct communication peers.
    pub peers: Distribution,
    /// Distinct tag values observed.
    pub distinct_tags: usize,
    /// Widest tag value observed (bits needed = ceil(log2(max+1))).
    pub(crate) max_tag: u32,
    /// Distribution (across ranks) of maximum UMQ depth — Figure 2.
    pub umq_depth: Distribution,
    /// Distribution (across ranks) of maximum PRQ depth.
    pub prq_depth: Distribution,
    /// Mean UMQ search length per post.
    pub mean_search_len: f64,
    /// Distribution (across ranks) of each rank's mean UMQ search length.
    pub search_len: Distribution,
    /// Distribution (across ranks) of peer-usage imbalance: the busiest
    /// peer's share of a destination's traffic divided by the fair share
    /// (1 = perfectly uniform; Section VI-A flags Nekbone and AMR Boxlib
    /// as irregular by this measure).
    pub peer_imbalance: Distribution,
    /// Fig. 6(a): average over destinations of the most common
    /// {src, tag} tuple's share of that destination's messages (percent).
    pub tuple_uniqueness_pct: f64,
    /// Fraction of arrivals that were unexpected (joined the UMQ), percent.
    pub unexpected_pct: f64,
}

impl AppAnalysis {
    /// Bits required to represent every observed tag.
    pub fn tag_bits(&self) -> u32 {
        32 - self.max_tag.leading_zeros().min(32)
    }
}

/// Analyse a trace: replay the queues and aggregate the Section IV
/// statistics.
pub fn analyze(trace: &Trace) -> AppAnalysis {
    let ranks = trace.ranks as usize;
    let mut states: Vec<RankState> = (0..ranks).map(|_| RankState::new()).collect();
    let mut comms: BTreeSet<u16> = BTreeSet::new();
    let mut tags: BTreeSet<u32> = BTreeSet::new();
    let mut peers: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); ranks];
    let mut tuple_counts: Vec<HashMap<(u32, u32, u16), u64>> = vec![HashMap::new(); ranks];
    let mut peer_traffic: Vec<HashMap<u32, u64>> = vec![HashMap::new(); ranks];
    let mut per_dest_msgs: Vec<u64> = vec![0; ranks];
    let mut messages = 0u64;
    let mut src_wildcards = 0u64;
    let mut tag_wildcards = 0u64;
    let mut unexpected = 0u64;

    for ev in &trace.events {
        match *ev {
            TraceEvent::Send {
                src,
                dst,
                tag,
                comm,
                ..
            } => {
                messages += 1;
                comms.insert(comm);
                tags.insert(tag);
                peers[src as usize].insert(dst);
                peers[dst as usize].insert(src);
                *tuple_counts[dst as usize]
                    .entry((src, tag, comm))
                    .or_insert(0) += 1;
                *peer_traffic[dst as usize].entry(src).or_insert(0) += 1;
                per_dest_msgs[dst as usize] += 1;

                let st = &mut states[dst as usize];
                let env = Envelope::new(src, tag, comm);
                let (hit, _inspected) = st.prq.remove_first(|r| r.matches(&env));
                match hit {
                    Some(_) => st.matches += 1,
                    None => {
                        st.umq.push(env);
                        unexpected += 1;
                    }
                }
            }
            TraceEvent::PostRecv { rank, src, tag, .. } => {
                if src.is_none() {
                    src_wildcards += 1;
                }
                if tag.is_none() {
                    tag_wildcards += 1;
                }
                let req = ev.request().expect("post event");
                let st = &mut states[rank as usize];
                let (hit, inspected) = st.umq.remove_first(|m| req.matches(m));
                st.umq_search_attempts += 1;
                st.umq_search_total += inspected as u64;
                match hit {
                    Some(_) => st.matches += 1,
                    None => st.prq.push(req),
                }
            }
        }
    }

    // Aggregate per-rank metrics. Ranks that received no traffic are
    // excluded from the depth distributions (matching the paper, which
    // plots ranks participating in point-to-point exchange).
    let active: Vec<usize> = (0..ranks).filter(|&r| per_dest_msgs[r] > 0).collect();
    let umq_depths: Vec<f64> = active
        .iter()
        .map(|&r| states[r].umq.max_live as f64)
        .collect();
    let prq_depths: Vec<f64> = active
        .iter()
        .map(|&r| states[r].prq.max_live as f64)
        .collect();
    let peer_counts: Vec<f64> = active.iter().map(|&r| peers[r].len() as f64).collect();

    let uniq: Vec<f64> = active
        .iter()
        .filter(|&&r| per_dest_msgs[r] > 0)
        .map(|&r| {
            let max = tuple_counts[r].values().copied().max().unwrap_or(0);
            100.0 * max as f64 / per_dest_msgs[r] as f64
        })
        .collect();
    let tuple_uniqueness_pct = if uniq.is_empty() {
        0.0
    } else {
        uniq.iter().sum::<f64>() / uniq.len() as f64
    };

    let (search_total, search_attempts) = states.iter().fold((0u64, 0u64), |(t, a), s| {
        (t + s.umq_search_total, a + s.umq_search_attempts)
    });
    let per_rank_search: Vec<f64> = active
        .iter()
        .filter(|&&r| states[r].umq_search_attempts > 0)
        .map(|&r| states[r].umq_search_total as f64 / states[r].umq_search_attempts as f64)
        .collect();
    let imbalance: Vec<f64> = active
        .iter()
        .filter(|&&r| !peer_traffic[r].is_empty())
        .map(|&r| {
            let t = &peer_traffic[r];
            let max = *t.values().max().unwrap() as f64;
            let mean = t.values().sum::<u64>() as f64 / t.len() as f64;
            max / mean
        })
        .collect();

    AppAnalysis {
        app: trace.app.clone(),
        ranks: trace.ranks,
        messages,
        src_wildcards,
        tag_wildcards,
        communicators: comms.len(),
        peers: Distribution::of(&peer_counts),
        distinct_tags: tags.len(),
        max_tag: tags.iter().copied().max().unwrap_or(0),
        umq_depth: Distribution::of(&umq_depths),
        prq_depth: Distribution::of(&prq_depths),
        mean_search_len: if search_attempts > 0 {
            search_total as f64 / search_attempts as f64
        } else {
            0.0
        },
        search_len: Distribution::of(&per_rank_search),
        peer_imbalance: Distribution::of(&imbalance),
        tuple_uniqueness_pct,
        unexpected_pct: if messages > 0 {
            100.0 * unexpected as f64 / messages as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppModel;
    use crate::generator::{generate, GenOptions};

    #[test]
    fn distribution_quartiles() {
        let d = Distribution::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(d.min, 1.0);
        assert_eq!(d.median, 3.0);
        assert_eq!(d.max, 5.0);
        assert_eq!(d.q1, 2.0);
        assert_eq!(d.q3, 4.0);
        assert_eq!(d.mean, 3.0);
        let empty = Distribution::of(&[]);
        assert_eq!(empty.max, 0.0);
    }

    #[test]
    fn tombstone_queue_matches_naive_semantics() {
        let mut q = TombstoneQueue::new();
        for i in 0..10 {
            q.push(i);
        }
        let (hit, inspected) = q.remove_first(|&x| x == 5);
        assert_eq!(hit, Some(5));
        assert_eq!(inspected, 6);
        // Head search skips the tombstone.
        let (hit, inspected) = q.remove_first(|&x| x == 6);
        assert_eq!(hit, Some(6));
        assert_eq!(inspected, 6, "5 live entries before 6 plus itself");
        assert_eq!(q.live(), 8);
        assert_eq!(q.max_live, 10);
        let (miss, _) = q.remove_first(|&x| x == 99);
        assert_eq!(miss, None);
    }

    #[test]
    fn simple_trace_depths() {
        // 3 unexpected arrivals then 3 posts: UMQ max 3, PRQ max 0.
        let trace = Trace {
            app: "t".into(),
            ranks: 2,
            events: vec![
                TraceEvent::Send {
                    ts: 1,
                    src: 0,
                    dst: 1,
                    tag: 0,
                    comm: 0,
                    bytes: 0,
                },
                TraceEvent::Send {
                    ts: 2,
                    src: 0,
                    dst: 1,
                    tag: 1,
                    comm: 0,
                    bytes: 0,
                },
                TraceEvent::Send {
                    ts: 3,
                    src: 0,
                    dst: 1,
                    tag: 2,
                    comm: 0,
                    bytes: 0,
                },
                TraceEvent::PostRecv {
                    ts: 4,
                    rank: 1,
                    src: Some(0),
                    tag: Some(0),
                    comm: 0,
                },
                TraceEvent::PostRecv {
                    ts: 5,
                    rank: 1,
                    src: Some(0),
                    tag: Some(1),
                    comm: 0,
                },
                TraceEvent::PostRecv {
                    ts: 6,
                    rank: 1,
                    src: Some(0),
                    tag: Some(2),
                    comm: 0,
                },
            ],
        };
        let a = analyze(&trace);
        assert_eq!(a.umq_depth.max, 3.0);
        assert_eq!(a.prq_depth.max, 0.0);
        assert_eq!(a.messages, 3);
        assert_eq!(a.unexpected_pct, 100.0);
        assert_eq!(a.communicators, 1);
        assert_eq!(a.distinct_tags, 3);
    }

    #[test]
    fn generated_depths_land_near_targets() {
        // Full-scale generation for a deep-queue app and a shallow one.
        for (name, tol) in [("Nekbone", 0.35), ("LULESH", 0.25)] {
            let model = AppModel::by_name(name).unwrap();
            let t = generate(&model, GenOptions::default());
            let a = analyze(&t);
            let mean = a.umq_depth.mean;
            let target = model.umq_mean as f64;
            assert!(
                (mean - target).abs() / target < tol,
                "{name}: UMQ mean {mean} vs target {target}"
            );
            let med = a.umq_depth.median;
            let target_med = model.umq_median as f64;
            assert!(
                (med - target_med).abs() / target_med < tol,
                "{name}: UMQ median {med} vs target {target_med}"
            );
            // PRQ similar to UMQ (paper: "similar queue lengths").
            assert!(
                (a.prq_depth.mean - mean).abs() / mean < 0.3,
                "{name}: PRQ {} vs UMQ {mean}",
                a.prq_depth.mean
            );
        }
    }

    #[test]
    fn wildcard_counters() {
        let model = AppModel::by_name("MiniDFT").unwrap();
        let t = generate(
            &model,
            GenOptions {
                depth_scale: 0.5,
                ranks: Some(32),
                seed: 5,
                rank0_funnel: 0,
            },
        );
        let a = analyze(&t);
        assert!(a.src_wildcards > 0);
        assert_eq!(a.tag_wildcards, 0);
        assert_eq!(a.communicators, 7);
    }

    #[test]
    fn tag_bits_stay_within_16() {
        for model in AppModel::all() {
            let t = generate(
                &model,
                GenOptions {
                    depth_scale: 0.2,
                    ranks: Some(24),
                    seed: 6,
                    rank0_funnel: 0,
                },
            );
            let a = analyze(&t);
            assert!(
                a.tag_bits() <= 16,
                "{}: tags need {} bits, paper says 16 suffice",
                model.name,
                a.tag_bits()
            );
        }
    }

    #[test]
    fn irregular_apps_show_peer_imbalance() {
        let opts = |seed| GenOptions {
            depth_scale: 0.3,
            ranks: Some(32),
            seed,
            rank0_funnel: 0,
        };
        let nek = analyze(&generate(&AppModel::by_name("Nekbone").unwrap(), opts(8)));
        let lul = analyze(&generate(&AppModel::by_name("LULESH").unwrap(), opts(8)));
        assert!(
            nek.peer_imbalance.median > lul.peer_imbalance.median * 1.5,
            "Nekbone {} must be far more skewed than LULESH {}",
            nek.peer_imbalance.median,
            lul.peer_imbalance.median
        );
        assert!(
            lul.peer_imbalance.median < 1.6,
            "regular apps are near uniform, got {}",
            lul.peer_imbalance.median
        );
    }

    #[test]
    fn search_lengths_are_short_for_fifo_like_traffic() {
        // Related work (Brightwell et al.) reports average search lengths
        // below 30; our generated posts are near-FIFO so searches stay
        // near the head.
        let model = AppModel::by_name("Crystal Router").unwrap();
        let t = generate(
            &model,
            GenOptions {
                depth_scale: 0.5,
                ranks: Some(24),
                seed: 9,
                rank0_funnel: 0,
            },
        );
        let a = analyze(&t);
        assert!(
            a.search_len.mean < 30.0,
            "mean search length {} should stay below 30",
            a.search_len.mean
        );
    }

    #[test]
    fn uniqueness_single_digit_for_wide_tag_apps() {
        let model = AppModel::by_name("MiniDFT").unwrap();
        let t = generate(
            &model,
            GenOptions {
                depth_scale: 0.5,
                ranks: Some(48),
                seed: 7,
                rank0_funnel: 0,
            },
        );
        let a = analyze(&t);
        assert!(
            a.tuple_uniqueness_pct < 10.0,
            "MiniDFT uniqueness {} must be single-digit",
            a.tuple_uniqueness_pct
        );
    }
}
