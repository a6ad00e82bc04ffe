//! Differential tests for the matching-speed layer: counting-digest
//! pre-filters, the structure-of-arrays word path and wildcard probe
//! dedup must be **performance-only** changes. Every observable match
//! result — engine assignments, domain completion streams, service
//! metrics/trace artefacts — is byte-identical with the features on or
//! off; only cycle and stall counts may move.
//!
//! | layer | toggled feature | identity checked |
//! |---|---|---|
//! | engine | `screen_batch` views | assignment (all five engines) |
//! | engine | SoA `words()` upload | full `GpuMatchReport` |
//! | engine | `dedup_probes` | assignment, fewer cycles |
//! | domain | `DomainConfig::prefilter` | completion stream |
//! | service | `ShardedServiceConfig::prefilter` | metrics JSON, Prometheus, completions, Perfetto |

use bytes::Bytes;
use gpu_msg::{
    Domain, DomainConfig, EndpointStats, MatcherKind, Scheduler, ServiceEngine, ShardEnginePolicy,
    ShardedMatchService, ShardedServiceConfig,
};
use integration_support::as_usize;
use msg_match::prelude::*;
use msg_match::reference::{verify_mpi_matching, verify_valid_matching};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simt_sim::{Gpu, GpuGeneration};

const GEN: GpuGeneration = GpuGeneration::PascalGtx1080;

/// A boxed engine driver: batch in, assignment out.
type EngineRun = Box<dyn Fn(&[Envelope], &[RecvRequest]) -> Vec<Option<u32>>>;

/// Wildcard density of a generated workload.
#[derive(Clone, Copy)]
enum Mix {
    /// Source and tag wildcards (full-MPI engines).
    All,
    /// Tag wildcards only (partitioned contract).
    TagOnly,
    /// Exact tuples only (hash contract).
    None,
}

/// A mixed workload with deliberately unmatchable traffic on **both**
/// sides: unexpected messages carry tags no request ever names
/// (tag ≥ 900) and fruitless requests name tags no message ever carries
/// (tag ≥ 2000) — exactly what the screen exists to reject.
fn mixed_workload(n: usize, mix: Mix, seed: u64) -> (Vec<Envelope>, Vec<RecvRequest>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut msgs = Vec::new();
    let mut reqs = Vec::new();
    for _ in 0..n {
        let (s, t, c) = (
            rng.gen_range(0..6u32),
            rng.gen_range(0..4u32),
            rng.gen_range(0..2u16),
        );
        msgs.push(Envelope::new(s, t, c));
        reqs.push(match (mix, rng.gen_range(0..5u8)) {
            (Mix::All, 0) => RecvRequest::any_source(t, c),
            (Mix::All, 1) | (Mix::TagOnly, 0) => RecvRequest::any_tag(s, c),
            _ => RecvRequest::exact(s, t, c),
        });
    }
    // Unexpected traffic uses sources *and* tags outside every request's
    // range so neither an `(Any, tag)` nor a `(src, Any)` wildcard can
    // cover it; the fruitless requests name tags no message carries.
    for k in 0..(n / 4) as u32 {
        msgs.push(Envelope::new(50 + k, 900 + k, 0)); // unexpected
        reqs.push(RecvRequest::exact(k % 6, 2000 + k, 0)); // fruitless
    }
    // Shuffle posting order so wildcards interleave with exact posts.
    for i in (1..reqs.len()).rev() {
        let j = rng.gen_range(0..=i);
        reqs.swap(i, j);
    }
    (msgs, reqs)
}

/// Run `matcher` on the screened views of the batch and fan the
/// assignment back out to full-batch indices.
fn via_screen(
    msgs: &[Envelope],
    reqs: &[RecvRequest],
    matcher: impl FnOnce(&[Envelope], &[RecvRequest]) -> Vec<Option<u32>>,
) -> (Vec<Option<u32>>, ScreenReport) {
    let screen = screen_batch(msgs, reqs);
    let sub_msgs: Vec<Envelope> = screen.msg_keep.iter().map(|&i| msgs[i as usize]).collect();
    let sub_reqs: Vec<RecvRequest> = screen.req_keep.iter().map(|&j| reqs[j as usize]).collect();
    let sub = matcher(&sub_msgs, &sub_reqs);
    (expand_assignment(reqs.len(), &screen, &sub), screen)
}

/// Arrivals then posts through an event matcher, as a batch assignment.
fn list_assignment(msgs: &[Envelope], reqs: &[RecvRequest], hashed: bool) -> Vec<Option<u32>> {
    let mut list = ListMatcher::new();
    let mut hl = HashedListMatcher::new(8);
    for &m in msgs {
        let none = if hashed { hl.arrive(m) } else { list.arrive(m) };
        assert!(none.is_none(), "no posts outstanding");
    }
    let mut a = vec![None; reqs.len()];
    for (j, &r) in reqs.iter().enumerate() {
        let pair = if hashed { hl.post(r) } else { list.post(r) };
        if let Some(pair) = pair {
            a[j] = Some(pair.msg_seq as u32);
        }
    }
    a
}

/// Screening is assignment-transparent for every deterministic engine:
/// list, hashed-list, matrix (AoS and word paths) and partitioned all
/// produce bit-identical assignments on the screened views, and the
/// screen provably rejected traffic while doing so.
#[test]
fn screened_views_are_assignment_identical_for_deterministic_engines() {
    for seed in [3u64, 17, 92] {
        // Full-MPI engines under the full wildcard mix.
        let (msgs, reqs) = mixed_workload(160, Mix::All, seed);
        let cases: Vec<(&str, EngineRun)> = vec![
            (
                "list",
                Box::new(|m: &[Envelope], r: &[RecvRequest]| list_assignment(m, r, false)),
            ),
            (
                "hashed-list",
                Box::new(|m: &[Envelope], r: &[RecvRequest]| list_assignment(m, r, true)),
            ),
            (
                "matrix",
                Box::new(|m: &[Envelope], r: &[RecvRequest]| {
                    let mut gpu = Gpu::new(GEN);
                    MatrixMatcher::default()
                        .match_batch(&mut gpu, m, r)
                        .assignment
                }),
            ),
        ];
        for (name, run) in cases {
            let full = run(&msgs, &reqs);
            let (expanded, screen) = via_screen(&msgs, &reqs, run);
            // The digests are conservative (hash collisions may pass a
            // few unmatchables through), so demand most of the 40
            // planted entries per side rather than all of them.
            assert!(
                screen.rejected_msgs >= 20 && screen.rejected_reqs >= 20,
                "{name}: fixture must exercise rejection on both sides \
                 (rejected {} msgs, {} reqs)",
                screen.rejected_msgs,
                screen.rejected_reqs
            );
            assert_eq!(
                full, expanded,
                "{name} seed={seed}: screening changed results"
            );
            verify_mpi_matching(&msgs, &reqs, &as_usize(&full)).expect(name);
        }

        // Partitioned under its no-source-wildcard contract.
        let (msgs, reqs) = mixed_workload(160, Mix::TagOnly, seed);
        let part = |m: &[Envelope], r: &[RecvRequest]| {
            let mut gpu = Gpu::new(GEN);
            PartitionedMatcher::new(4)
                .match_batch(&mut gpu, m, r)
                .expect("no source wildcards")
                .assignment
        };
        let full = part(&msgs, &reqs);
        let (expanded, _) = via_screen(&msgs, &reqs, part);
        assert_eq!(full, expanded, "partitioned seed={seed}");
        verify_mpi_matching(&msgs, &reqs, &as_usize(&full)).expect("partitioned");
    }
}

/// The hash engine relaxes ordering, so screened and unscreened runs may
/// pair duplicates differently — but both must be valid **maximal**
/// matchings of the same size (screening never removes a matchable
/// entry, so the matching number is unchanged).
#[test]
fn screened_hash_matching_is_valid_and_same_size() {
    for seed in [3u64, 17, 92] {
        let (msgs, reqs) = mixed_workload(160, Mix::None, seed);
        let hash = |m: &[Envelope], r: &[RecvRequest]| {
            let mut gpu = Gpu::new(GEN);
            HashMatcher::default()
                .match_batch(&mut gpu, m, r)
                .expect("no wildcards")
                .assignment
        };
        let full = hash(&msgs, &reqs);
        let (expanded, _) = via_screen(&msgs, &reqs, hash);
        assert_eq!(
            full.iter().flatten().count(),
            expanded.iter().flatten().count(),
            "seed={seed}: screening changed the matching number"
        );
        verify_valid_matching(&msgs, &reqs, &as_usize(&expanded)).expect("screened hash");
    }
}

/// The maintained SoA word columns are bit-identical to on-demand
/// packing, and the word-path kernel entry reproduces the AoS entry's
/// **entire** report — assignment, cycles, instruction and stall
/// classes — because it runs the very same launches.
#[test]
fn soa_word_path_reproduces_aos_reports_exactly() {
    for seed in [1u64, 44] {
        let (msgs, reqs) = mixed_workload(200, Mix::All, seed);
        let mut esoa = EnvelopeSoa::new();
        let mut rsoa = RequestSoa::new();
        for m in &msgs {
            esoa.push(m);
        }
        for r in &reqs {
            rsoa.push(r);
        }
        let packed_msgs: Vec<u64> = msgs.iter().map(Envelope::pack).collect();
        let packed_reqs: Vec<u64> = reqs.iter().map(RecvRequest::pack).collect();
        assert_eq!(
            esoa.words(),
            &packed_msgs[..],
            "maintained UMQ column drifted"
        );
        assert_eq!(
            rsoa.words(),
            &packed_reqs[..],
            "maintained PRQ column drifted"
        );

        let m = MatrixMatcher::default();
        let mut gpu_a = Gpu::new(GEN);
        let mut gpu_b = Gpu::new(GEN);
        let aos = m.match_batch(&mut gpu_a, &msgs, &reqs);
        let soa = m.match_words(&mut gpu_b, esoa.words(), rsoa.words());
        assert_eq!(aos.assignment, soa.assignment, "seed={seed}");
        assert_eq!(aos.matches, soa.matches);
        assert_eq!(aos.launches, soa.launches);
        assert_eq!(
            aos.cycles, soa.cycles,
            "word path must be timing-transparent"
        );
        assert_eq!(aos.instructions, soa.instructions);
        assert_eq!(aos.stall_cycles, soa.stall_cycles);
        assert_eq!(aos.class_instructions, soa.class_instructions);
        assert_eq!(aos.probe_dedups, soa.probe_dedups);

        // The iterative word driver agrees with the AoS iterative driver
        // on assignment too (it may take identical rounds).
        let mut gpu_c = Gpu::new(GEN);
        let mut gpu_d = Gpu::new(GEN);
        let it_aos = m.match_iterative(&mut gpu_c, &msgs, &reqs);
        let it_soa = m.match_iterative_words(&mut gpu_d, esoa.words(), rsoa.words());
        assert_eq!(it_aos.assignment, it_soa.assignment);
        assert_eq!(it_aos.cycles, it_soa.cycles);
    }
}

/// Wildcard probe dedup changes instruction and cycle counts only: with
/// a run of back-to-back identical wildcard posts the deduped scan
/// produces the same assignment in strictly fewer cycles, and reports
/// how many probes it served from the reused ballot.
#[test]
fn probe_dedup_is_result_transparent_and_faster() {
    // 256 messages from 4 sources; requests are long runs of identical
    // `(src, ANY_TAG)` probes — the duplicate-heavy shape the scan
    // dedups — plus an exact tail so not everything is wildcard.
    let msgs: Vec<Envelope> = (0..256u32)
        .map(|i| Envelope::new(i % 4, i / 4, 0))
        .collect();
    let mut reqs = Vec::new();
    for src in 0..4u32 {
        for _ in 0..48 {
            reqs.push(RecvRequest::any_tag(src, 0));
        }
    }
    for i in 0..64u32 {
        reqs.push(RecvRequest::exact(i % 4, i / 4, 0));
    }

    let on = MatrixMatcher::default();
    let off = MatrixMatcher {
        dedup_probes: false,
        ..MatrixMatcher::default()
    };
    let mut gpu_on = Gpu::new(GEN);
    let mut gpu_off = Gpu::new(GEN);
    let r_on = on.match_batch(&mut gpu_on, &msgs, &reqs);
    let r_off = off.match_batch(&mut gpu_off, &msgs, &reqs);

    assert_eq!(
        r_on.assignment, r_off.assignment,
        "dedup must not change a single match"
    );
    assert!(
        r_on.probe_dedups >= 4 * 47,
        "every adjacent duplicate must be served by ballot reuse: {}",
        r_on.probe_dedups
    );
    assert_eq!(r_off.probe_dedups, 0, "disabled dedup must report none");
    assert!(
        r_on.cycles < r_off.cycles,
        "dedup must save cycles: {} vs {}",
        r_on.cycles,
        r_off.cycles
    );
    verify_mpi_matching(&msgs, &reqs, &as_usize(&r_on.assignment)).expect("deduped matrix");
}

/// Drive one domain scenario and return the receiver's completion
/// stream plus endpoint stats. The scenario exercises both screen
/// outcomes: a fruitless phase (noise the posted side never asked for —
/// the launch is skippable) and a mixed phase where wildcards must fall
/// through the screen conservatively.
fn domain_scenario(prefilter: bool) -> (Vec<gpu_msg::Completion>, EndpointStats) {
    let mut cfg = DomainConfig::new(2, GEN, MatcherKind::Matrix, RelaxationConfig::FULL_MPI);
    cfg.prefilter = prefilter;
    let d = Domain::with_config(cfg);

    // Phase 1: noise messages with tags nobody requests, plus one
    // fruitless post. Screening rejects every entry on both sides.
    for t in 0..8u32 {
        d.send(0, 1, 900 + t, 0, Bytes::from(vec![t as u8]));
    }
    d.post_recv(1, RecvRequest::exact(0, 5, 0)).expect("post");
    for _ in 0..4 {
        assert_eq!(d.progress(1).expect("progress"), 0, "nothing can match yet");
    }

    // Phase 2: real traffic. The outstanding tag-5 post completes, the
    // wildcard posts must survive the screen (ANY probes are
    // conservative) and drain in FIFO order — the ANY_TAG post takes
    // the oldest queued noise message from rank 0.
    for t in 0..8u32 {
        d.send(0, 1, t, 0, Bytes::from(vec![16 + t as u8]));
    }
    for t in 0..4u32 {
        d.post_recv(1, RecvRequest::exact(0, t, 0)).expect("post");
    }
    d.post_recv(1, RecvRequest::any_tag(0, 0)).expect("post");
    d.post_recv(1, RecvRequest::any_source(6, 0)).expect("post");
    let mut matched = 0usize;
    for _ in 0..16 {
        matched += d.progress(1).expect("progress");
    }
    assert_eq!(matched, 7, "five exact + two wildcard completions");
    (d.take_completions(1), d.stats(1))
}

/// `DomainConfig::prefilter` is completion-transparent: the delivered
/// stream is identical with the screen on or off, the screened run
/// skips the fruitless launches (and spends fewer simulated cycles),
/// and the unscreened run reports no screening activity at all.
#[test]
fn domain_prefilter_toggle_preserves_completions() {
    let (on_completions, on) = domain_scenario(true);
    let (off_completions, off) = domain_scenario(false);
    assert_eq!(
        on_completions, off_completions,
        "prefilter changed delivered completions"
    );
    assert_eq!(on.matches, off.matches);
    assert!(
        on.prefilter_skipped_launches >= 1,
        "phase 1 launches must be screened away entirely: {on:?}"
    );
    assert!(
        on.prefilter_rejections >= 8,
        "noise must be rejected: {on:?}"
    );
    assert!(on.prefilter_probes > 0);
    assert_eq!(off.prefilter_rejections, 0);
    assert_eq!(off.prefilter_skipped_launches, 0);
    assert_eq!(off.prefilter_probes, 0);
    assert!(
        on.kernel_cycles < off.kernel_cycles,
        "screening must save simulated device time: {} vs {}",
        on.kernel_cycles,
        off.kernel_cycles
    );
}

/// Service-level artefacts — metrics JSON, Prometheus exposition,
/// per-stream completions and the Perfetto shard timeline — are
/// byte-identical with the dispatch screen on or off, under both
/// schedulers. Service streams are self-matching, so the screen keeps
/// every entry and even its rejection counter reads zero both ways.
#[test]
fn service_artefacts_identical_with_prefilter_on_and_off() {
    for engine in [ServiceEngine::Matrix, ServiceEngine::Hash] {
        for scheduler in [Scheduler::GlobalClock, Scheduler::ThreadPerShard] {
            let run = |prefilter: bool| {
                let cfg = ShardedServiceConfig {
                    shards: 2,
                    arrival_rate: 3.0e6,
                    duration: 0.5e-3,
                    queue_capacity: 1 << 20,
                    drain: true,
                    policy: ShardEnginePolicy::Fixed(engine),
                    seed: 11,
                    trace: true,
                    scheduler,
                    prefilter,
                    ..Default::default()
                };
                let mut svc = ShardedMatchService::new(GEN, cfg);
                svc.set_record_completions(true);
                let r = svc.run();
                (
                    r.metrics.to_json(),
                    r.metrics.to_prometheus(),
                    r.completions.expect("recording on"),
                    svc.trace_json().expect("tracing on"),
                )
            };
            let on = run(true);
            let off = run(false);
            assert_eq!(
                on.0, off.0,
                "{engine:?}/{scheduler:?}: metrics JSON diverged"
            );
            assert_eq!(on.1, off.1, "{engine:?}/{scheduler:?}: Prometheus diverged");
            assert_eq!(
                on.2, off.2,
                "{engine:?}/{scheduler:?}: completions diverged"
            );
            assert_eq!(
                on.3, off.3,
                "{engine:?}/{scheduler:?}: shard trace diverged"
            );
            assert!(
                on.1.contains("shard_prefilter_rejections_total{shard=\"0\""),
                "the rejection family must be exported"
            );
        }
    }
}

/// What the screen buys on the workload it exists for, on the
/// compliant matrix engine: at depth 1024 with 90 % unexpected traffic
/// the screened views cost fewer device cycles and fewer
/// memory-dependency stall cycles (stall class 1) and reject on both
/// sides; on fully-matching traffic the screen keeps everything and the
/// cycle count is untouched. The CPU list baseline walks fewer entries
/// behind the same filters.
#[test]
fn screening_cuts_cycles_and_mem_stalls_only_where_traffic_is_unexpected() {
    let matcher = MatrixMatcher::default();
    let run = |match_pct: u32| {
        let w = WorkloadSpec {
            len: 1024,
            match_pct,
            seed: 5,
            ..Default::default()
        }
        .generate();
        let full = matcher.match_iterative(&mut Gpu::new(GEN), &w.msgs, &w.reqs);
        let mut screened = None;
        let (expanded, screen) = via_screen(&w.msgs, &w.reqs, |m, r| {
            let report = matcher.match_iterative(&mut Gpu::new(GEN), m, r);
            screened.insert(report).assignment.clone()
        });
        assert_eq!(full.assignment, expanded, "{match_pct}% matching");
        (full, screened.expect("the matcher ran"), screen)
    };
    let (full, screened, screen) = run(10);
    assert!(screened.cycles < full.cycles, "fewer device cycles");
    assert!(
        screened.stall_cycles[1] < full.stall_cycles[1],
        "skipping fruitless traversals must cut memory-dependency stalls: {} vs {}",
        screened.stall_cycles[1],
        full.stall_cycles[1]
    );
    assert!(
        screen.rejected_msgs > 0 && screen.rejected_reqs > 0,
        "the screen must reject on both sides"
    );
    let (full, screened, _) = run(100);
    assert_eq!(screened.cycles, full.cycles, "nothing to reject, no cost");

    let w = WorkloadSpec {
        len: 512,
        match_pct: 10,
        seed: 5,
        ..Default::default()
    }
    .generate();
    let mut plain = ListMatcher::with_stats(true);
    let mut filtered = ListMatcher::with_prefilter(true);
    for &m in &w.msgs {
        assert_eq!(plain.arrive(m), filtered.arrive(m));
    }
    for &r in &w.reqs {
        assert_eq!(plain.post(r), filtered.post(r));
    }
    let inspected = |m: &ListMatcher| -> usize {
        let walks = m.umq_attempts.iter().chain(&m.prq_attempts);
        walks.map(|a| a.search_len).sum()
    };
    assert!(inspected(&filtered) < inspected(&plain), "fewer list walks");
    assert!(filtered.prefilter_rejections > 0);
}
